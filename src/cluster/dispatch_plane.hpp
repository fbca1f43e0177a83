// DispatchPlane: the fault-tolerant heart of the cluster module.
//
// The plane owns N worker instances (machine + pool + scheduler, all on
// the shared virtual clock), routes arrivals to routable workers, and
// heals worker-tier faults:
//
//  * Crash: the injector silently kills a worker at a detector scan. The
//    simulator cannot preempt the worker's already-scheduled events, so
//    the dead instance keeps executing as a *zombie* whose completions
//    the plane drops — exactly the at-least-once semantics of a real VM
//    that was declared dead but still finishes requests. Accounting
//    stays clean because every instance stamps its own private records
//    vector; the plane merges a worker's stamps into the canonical
//    global records only for valid (non-stale) completions.
//
//  * Stall: the worker wedges — keeps accepting, stops completing — for
//    worker_stall_multiplier × suspect_after. Completions are buffered
//    and merged when the stall ends, unless the detector confirmed death
//    first (then the stranded work was already failed over and the
//    buffer dies with the zombie).
//
//  * Detection: a pull-based FailureDetector scan (no sleeps, no
//    threads) marks busy-but-silent workers suspect, then dead. Scans
//    run only when the plan has worker fault classes or operator actions
//    exist, so plain runs execute the exact event sequence of a
//    detector-free plane.
//
//  * Failover: on death, every non-terminally-accounted invocation
//    assigned to the worker re-enters the shared RetryPolicy — one more
//    attempt, one more fault, an attempt-linked span — and re-dispatches
//    to survivors (rendezvous hashing moves only the dead worker's
//    keys). Retry-budget exhaustion fails the invocation terminally; an
//    invocation is never silently lost.
//
//  * Drain/rejoin: operator actions stop routing to a worker, let its
//    in-flight finish, and remove it; rejoin (and crash restart after
//    worker_restart_latency) brings a fresh cold instance back.
//
//  * Binding: arrivals and failover re-dispatches alike queue unbound in
//    a front-end PendingQueue; the pump binds an invocation only when a
//    worker with free capacity takes it (late binding). A pull takes a
//    whole function-key run up to pull_batch — the excess beyond the
//    worker's capacity sits in its plane-side backlog, which idle
//    workers steal from (warm-for-the-thief keys first, then
//    rendezvous-affine) when the queue runs dry. With no routable
//    worker, work simply waits in the queue until one returns. On worker
//    death, injected work fails over through the retry policy, while
//    backlog work — bound but never started — returns to the head of
//    the queue with no attempt charged. All pump activity runs inside
//    virtual-clock event callbacks in worker-index order, so pull/steal
//    sequences are deterministic and fingerprints reproduce exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pending_queue.hpp"
#include "cluster/steal_policy.hpp"

namespace faasbatch::obs {
class Gauge;
}  // namespace faasbatch::obs

namespace faasbatch::cluster {

class DispatchPlane {
 public:
  /// Validates the spec (throws std::invalid_argument for zero workers
  /// or out-of-range action targets) and builds the worker instances.
  DispatchPlane(sim::Simulator& sim, const ClusterSpec& spec,
                const trace::Workload& workload);
  ~DispatchPlane();

  DispatchPlane(const DispatchPlane&) = delete;
  DispatchPlane& operator=(const DispatchPlane&) = delete;

  /// Schedules every arrival, operator action, and (when needed) the
  /// first detector scan. Call once, before sim.run().
  void start();

  /// Collects the ClusterResult after sim.run() returned. Throws
  /// std::runtime_error if any invocation was never terminally
  /// accounted — the stranded-invocation bug class.
  ClusterResult finish();

  /// Test introspection.
  WorkerState worker_state(std::size_t worker) const {
    return slots_.at(worker).state;
  }
  std::size_t accounted() const { return accounted_; }
  const std::vector<core::InvocationRecord>& records() const {
    return records_;
  }

 private:
  /// Sentinel for "assigned to no worker" (mid-failover backoff).
  static constexpr std::uint32_t kUnassignedWorker = 0xffffffffu;
  /// Runaway guard: a cluster wedged so badly that work can never finish
  /// (e.g. every routable worker crashed but spared by the last-live
  /// guard) stops scanning here, lets the simulator drain, and surfaces
  /// the stranded invocations as finish()'s runtime_error.
  static constexpr std::uint64_t kMaxScans = 1'000'000;

  /// One incarnation of a worker. Crash/death does not free it — its
  /// scheduled events keep firing (zombie) against its private records.
  struct Instance {
    std::unique_ptr<runtime::Machine> machine;
    std::unique_ptr<runtime::ContainerPool> pool;
    std::unique_ptr<schedulers::Scheduler> scheduler;
    /// Private full-size records; zombie stamps land here, never in the
    /// plane's canonical records.
    std::vector<core::InvocationRecord> records;
    bool crashed = false;
    /// Wedged until this time (0 = not stalled); completions buffer in
    /// stalled_completions and merge at recovery.
    SimTime stalled_until = 0;
    std::vector<InvocationId> stalled_completions;
  };

  /// A worker identity, stable across incarnations.
  struct Slot {
    WorkerState state = WorkerState::kUp;
    std::unique_ptr<Instance> instance;
    /// Dead incarnations, kept alive so their in-flight simulator events
    /// can fire harmlessly.
    std::vector<std::unique_ptr<Instance>> zombies;
    std::size_t outstanding = 0;
    /// Invocations bound to this worker but not yet injected
    /// (a pull's excess over free capacity). Stealable; reclaimed to the
    /// pending queue on death or drain. Bounded by max(pull_batch,
    /// steal.max_steal), so scans over it stay O(1)-ish.
    std::deque<PendingItem> backlog;
    /// Incremented per death; restart events carry the epoch they were
    /// scheduled for so a rejoin-then-redeath never double-restarts.
    std::uint64_t death_epoch = 0;
    WorkerResult result;
    obs::Gauge* state_gauge = nullptr;
  };

  struct Assignment {
    std::uint32_t worker = kUnassignedWorker;
    bool terminal = false;
  };

  std::unique_ptr<Instance> make_instance(std::size_t worker);
  void set_state(std::size_t worker, WorkerState state);

  /// Routing. Candidates are kUp workers, falling back to kSuspect;
  /// with none routable, work waits in the pending queue.
  std::vector<std::size_t> route_candidates() const;
  std::size_t pick_route(FunctionId function,
                         const std::vector<std::size_t>& candidates);
  void dispatch_to(std::size_t worker, InvocationId id);
  /// Queues an arrival (or a failover re-dispatch at its retry instant)
  /// unbound and pumps; a no-op once the invocation is terminal.
  void enqueue(InvocationId id);

  /// Binding. pump() drives inject -> pull -> steal to a fixed point
  /// inside the current event; reentrant calls (a synchronous shed
  /// during injection) fold into the running pump.
  void pump();
  bool pump_pass();
  std::size_t free_capacity(std::size_t worker) const;
  /// Workers allowed to take new work: routable with free capacity.
  std::vector<std::size_t> pull_candidates() const;
  /// Warm-preferring worker choice for `function` (balancer fallback).
  std::size_t pick_puller(FunctionId function,
                          const std::vector<std::size_t>& candidates);
  bool inject_backlog(std::size_t worker);
  bool try_pull();
  bool try_steal();
  /// Returns a worker's backlog to the head of the pending queue
  /// (death/drain); charges no attempts, counts requeues.
  void requeue_backlog(std::size_t worker);
  void update_pending_gauges();

  /// Completion path (the per-worker notify_complete target).
  void on_worker_notify(std::size_t worker, Instance* self, InvocationId id);
  void account_shed(std::size_t worker, InvocationId id);
  void merge_completion(std::size_t worker,
                        const core::InvocationRecord& local, InvocationId id);
  void account_one(std::size_t worker);

  /// Detector scan: stall recovery, worker-fault draws, health verdicts.
  void scan();
  void recover_stalls(SimTime now);
  void inject_worker_faults(SimTime now);
  void assess_health(SimTime now);
  void declare_dead(std::size_t worker, SimTime now);
  void restart_worker(std::size_t worker, std::uint64_t epoch);
  void apply_action(const OperatorAction& action);

  /// Workers currently routable-ish (kUp or kSuspect).
  std::size_t live_count() const;
  /// Live workers whose instance has not silently crashed (the crash
  /// draw spares the last one so the cluster can always make progress).
  std::size_t healthy_live_count() const;

  sim::Simulator& sim_;
  ClusterSpec spec_;
  const trace::Workload& workload_;
  resilience::ChaosEngine chaos_;
  FailureDetector detector_;

  std::vector<Slot> slots_;
  /// Canonical records: the single source of truth for outcomes.
  std::vector<core::InvocationRecord> records_;
  std::vector<Assignment> assignments_;

  /// Unbound work awaiting a puller.
  PendingQueue pending_;
  /// Sum of all slots' backlog sizes (pump early-out).
  std::size_t backlog_total_ = 0;
  bool pumping_ = false;
  bool pump_again_ = false;

  std::size_t rr_cursor_ = 0;
  std::size_t accounted_ = 0;
  std::size_t total_ = 0;
  std::uint64_t scans_ = 0;
  bool scanning_ = false;
  bool done_ = false;
  SimTime makespan_ = 0;
};

}  // namespace faasbatch::cluster
