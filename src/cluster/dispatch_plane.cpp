#include "cluster/dispatch_plane.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/rendezvous.hpp"
#include "common/hash.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "runtime/container_pool.hpp"
#include "runtime/machine.hpp"
#include "sim/simulator.hpp"

namespace faasbatch::cluster {
namespace {

obs::Counter& redispatch_total() {
  static obs::Counter& c = obs::metrics().counter("fb_cluster_redispatch_total");
  return c;
}

obs::Counter& pulls_total() {
  static obs::Counter& c = obs::metrics().counter("fb_cluster_pulls_total");
  return c;
}

obs::Counter& steals_total() {
  static obs::Counter& c = obs::metrics().counter("fb_cluster_steals_total");
  return c;
}

obs::Counter& stolen_total() {
  static obs::Counter& c =
      obs::metrics().counter("fb_cluster_stolen_invocations_total");
  return c;
}

obs::Counter& requeued_total() {
  static obs::Counter& c =
      obs::metrics().counter("fb_cluster_backlog_requeued_total");
  return c;
}

obs::Gauge& pending_depth_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("fb_cluster_pending_depth");
  return g;
}

obs::Gauge& pending_age_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("fb_cluster_pending_age_ms");
  return g;
}

obs::Gauge& worker_state_gauge(std::size_t worker) {
  return obs::metrics().gauge("fb_cluster_worker_state{worker=\"" +
                              std::to_string(worker) + "\"}");
}

}  // namespace

DispatchPlane::DispatchPlane(sim::Simulator& sim, const ClusterSpec& spec,
                             const trace::Workload& workload)
    : sim_(sim),
      spec_(spec),
      workload_(workload),
      chaos_(spec.worker_spec.fault_plan, spec.worker_spec.retry_policy,
             spec.worker_spec.overload),
      detector_(spec.detector, spec.workers) {
  if (spec_.workers == 0) {
    throw std::invalid_argument("DispatchPlane: zero workers");
  }
  for (const OperatorAction& action : spec_.actions) {
    if (action.worker >= spec_.workers) {
      throw std::invalid_argument("DispatchPlane: action targets worker " +
                                  std::to_string(action.worker) + " of " +
                                  std::to_string(spec_.workers));
    }
  }

  total_ = workload_.events.size();
  records_.resize(total_);
  for (std::size_t i = 0; i < total_; ++i) {
    records_[i].id = static_cast<InvocationId>(i);
    records_[i].function = workload_.events[i].function;
    records_[i].arrival = workload_.events[i].arrival;
  }
  assignments_.resize(total_);

  slots_.resize(spec_.workers);
  for (std::size_t w = 0; w < spec_.workers; ++w) {
    slots_[w].state_gauge = &worker_state_gauge(w);
    slots_[w].instance = std::make_unique<Instance>(*this, w);
  }
}

DispatchPlane::~DispatchPlane() = default;

DispatchPlane::Instance::Instance(DispatchPlane& plane, std::size_t index)
    : worker(plane.sim_, plane.spec_.worker_spec, plane.workload_, plane.chaos_,
             // Bound to this incarnation, so a zombie's late completions
             // are told apart from its live successor's.
             [&plane, index, this](InvocationId id) {
               plane.on_worker_notify(index, this, id);
             }) {}

void DispatchPlane::start() {
  for (std::size_t w = 0; w < spec_.workers; ++w) {
    slots_[w].state_gauge->set(static_cast<double>(slots_[w].state));
  }
  for (std::size_t i = 0; i < total_; ++i) {
    const InvocationId id = static_cast<InvocationId>(i);
    sim_.schedule_at(workload_.events[i].arrival,
                     [this, id] { enqueue(id); });
  }
  for (const OperatorAction& action : spec_.actions) {
    sim_.schedule_at(action.at, [this, action] { apply_action(action); });
  }
  // The detector (and the worker-fault draws it hosts) only runs when a
  // worker can actually misbehave. Operator actions alone never need it —
  // drain completion is observed in account_one and rejoin is scheduled
  // directly — and a fault-free worker that is merely slow (a long
  // CPU-intensive invocation, a cold-start burst) must not be
  // false-positived into failover. Plain runs replay the detector-free
  // event sequence bit-for-bit.
  if (spec_.worker_spec.fault_plan.worker_faults()) {
    scanning_ = true;
    sim_.schedule_after(detector_.options().scan_interval, [this] { scan(); });
  }
}

void DispatchPlane::set_state(std::size_t worker, WorkerState state) {
  Slot& slot = slots_[worker];
  slot.state = state;
  slot.state_gauge->set(static_cast<double>(state));
  obs::flight().record(obs::FlightEventKind::kWorkerState,
                       static_cast<std::uint32_t>(worker), sim_.now(),
                       /*id=*/0, /*span=*/0,
                       static_cast<std::uint64_t>(state));
}

std::vector<std::size_t> DispatchPlane::route_candidates() const {
  std::vector<std::size_t> up;
  std::vector<std::size_t> suspect;
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    if (slots_[w].state == WorkerState::kUp) up.push_back(w);
    if (slots_[w].state == WorkerState::kSuspect) suspect.push_back(w);
  }
  // Suspects are a last resort: routing into a possibly-dead worker only
  // beats parking the request.
  return up.empty() ? suspect : up;
}

std::size_t DispatchPlane::pick_route(
    FunctionId function, const std::vector<std::size_t>& candidates) {
  switch (spec_.balancer) {
    case BalancerKind::kRoundRobin:
      return candidates[rr_cursor_++ % candidates.size()];
    case BalancerKind::kLeastOutstanding: {
      std::size_t best = candidates.front();
      for (const std::size_t w : candidates) {
        if (slots_[w].outstanding < slots_[best].outstanding) best = w;
      }
      return best;
    }
    case BalancerKind::kFunctionAffinity:
      return rendezvous_pick(function, candidates);
  }
  return candidates.front();
}

void DispatchPlane::dispatch_to(std::size_t worker, InvocationId id) {
  Slot& slot = slots_[worker];
  assignments_[id].worker = static_cast<std::uint32_t>(worker);
  assignments_[id].terminal = false;
  ++slot.result.routed;
  detector_.note_dispatch(worker, sim_.now(), slot.outstanding);
  ++slot.outstanding;
  slot.instance->worker.arrive(id);
}

void DispatchPlane::enqueue(InvocationId id) {
  if (done_ || assignments_[id].terminal) return;
  // Late binding: queue unbound; the pump binds when a worker has
  // capacity. Failover work re-enters like a fresh arrival at the retry
  // instant, and with nobody routable the work simply waits here.
  pending_.push(id, records_[id].function, sim_.now());
  pump();
}

void DispatchPlane::pump() {
  if (done_) return;
  if (pumping_) {
    // Reentrant trigger (a synchronous shed inside an injection, a
    // completion inside a scan): fold into the running pump instead of
    // recursing — the outer loop re-runs until nothing moves.
    pump_again_ = true;
    return;
  }
  pumping_ = true;
  do {
    pump_again_ = false;
    while (!done_ && pump_pass()) {
    }
  } while (pump_again_ && !done_);
  pumping_ = false;
  update_pending_gauges();
}

bool DispatchPlane::pump_pass() {
  bool progress = false;
  if (backlog_total_ > 0) {
    for (std::size_t w = 0; w < slots_.size() && !done_; ++w) {
      progress |= inject_backlog(w);
    }
    if (done_) return false;
  }
  if (try_pull()) return true;
  if (backlog_total_ > 0 && try_steal()) return true;
  return progress;
}

std::size_t DispatchPlane::free_capacity(std::size_t worker) const {
  const std::size_t capacity = spec_.pull.worker_capacity;
  if (capacity == 0) return static_cast<std::size_t>(-1);  // unbounded
  const std::size_t outstanding = slots_[worker].outstanding;
  return capacity > outstanding ? capacity - outstanding : 0;
}

std::vector<std::size_t> DispatchPlane::pull_candidates() const {
  std::vector<std::size_t> candidates = route_candidates();
  std::vector<std::size_t> free;
  free.reserve(candidates.size());
  for (const std::size_t w : candidates) {
    if (slots_[w].instance != nullptr && free_capacity(w) > 0) {
      free.push_back(w);
    }
  }
  return free;
}

std::size_t DispatchPlane::pick_puller(
    FunctionId function, const std::vector<std::size_t>& candidates) {
  // Shared warm-pool state: a worker already holding an idle container
  // for this function wins (ties via rendezvous, so the choice is stable
  // across runs); cold keys fall back to the configured balancer.
  std::vector<std::size_t> warm;
  for (const std::size_t w : candidates) {
    if (slots_[w].instance->worker.pool().has_idle(function)) warm.push_back(w);
  }
  if (!warm.empty()) return rendezvous_pick(function, warm);
  return pick_route(function, candidates);
}

bool DispatchPlane::inject_backlog(std::size_t worker) {
  Slot& slot = slots_[worker];
  if (slot.backlog.empty()) return false;
  if (slot.state != WorkerState::kUp && slot.state != WorkerState::kSuspect) {
    return false;
  }
  bool any = false;
  while (!slot.backlog.empty() && free_capacity(worker) > 0 && !done_) {
    const PendingItem item = slot.backlog.front();
    slot.backlog.pop_front();
    --backlog_total_;
    dispatch_to(worker, item.id);
    any = true;
  }
  return any;
}

bool DispatchPlane::try_pull() {
  if (pending_.empty()) return false;
  const std::vector<std::size_t> pullers = pull_candidates();
  if (pullers.empty()) return false;
  const FunctionId key = pending_.front_key();
  const std::size_t worker = pick_puller(key, pullers);
  Slot& slot = slots_[worker];
  std::vector<PendingItem> batch;
  pending_.pull_key(key, spec_.pull.pull_batch, batch);
  ++slot.result.transfer.pulls;
  slot.result.transfer.pulled += batch.size();
  pulls_total().inc();
  for (const PendingItem& item : batch) slot.backlog.push_back(item);
  backlog_total_ += batch.size();
  inject_backlog(worker);
  return true;
}

bool DispatchPlane::try_steal() {
  std::vector<std::size_t> depths(slots_.size(), 0);
  std::size_t deepest = 0;
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    depths[w] = slots_[w].backlog.size();
    deepest = std::max(deepest, depths[w]);
  }
  if (deepest < kMinVictimBacklog) return false;
  const std::vector<std::size_t> thieves = pull_candidates();
  const std::vector<std::size_t> affine_set = route_candidates();
  for (const std::size_t thief : thieves) {
    // A thief with its own backlog is not idle — capacity, not work, is
    // what it lacks; stealing more would just relocate the imbalance.
    if (!slots_[thief].backlog.empty()) continue;
    const auto victim = pick_victim(depths, thief);
    if (!victim.has_value()) continue;
    Slot& victim_slot = slots_[*victim];
    const std::size_t budget = steal_budget(victim_slot.backlog.size());
    runtime::ContainerPool& thief_pool = slots_[thief].instance->worker.pool();
    const std::vector<std::size_t> indices = select_steal_indices(
        victim_slot.backlog, budget,
        [&thief_pool](FunctionId f) { return thief_pool.has_idle(f); },
        [&affine_set, thief](FunctionId f) {
          return rendezvous_pick(f, affine_set) == thief;
        });
    if (indices.empty()) continue;
    // Move picked items thief-ward in original FIFO order; erase from
    // the victim back-to-front so earlier indices stay valid.
    Slot& thief_slot = slots_[thief];
    for (const std::size_t index : indices) {
      thief_slot.backlog.push_back(victim_slot.backlog[index]);
    }
    for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
      victim_slot.backlog.erase(victim_slot.backlog.begin() +
                                static_cast<std::ptrdiff_t>(*it));
    }
    ++thief_slot.result.transfer.steals;
    thief_slot.result.transfer.stolen += indices.size();
    victim_slot.result.transfer.victimized += indices.size();
    steals_total().inc();
    stolen_total().inc(indices.size());
    inject_backlog(thief);
    return true;
  }
  return false;
}

void DispatchPlane::requeue_backlog(std::size_t worker) {
  Slot& slot = slots_[worker];
  if (slot.backlog.empty()) return;
  const std::vector<PendingItem> items(slot.backlog.begin(),
                                       slot.backlog.end());
  slot.backlog.clear();
  backlog_total_ -= items.size();
  pending_.requeue_front(items);
  slot.result.transfer.requeued += items.size();
  requeued_total().inc(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) chaos_.note_requeue();
}

void DispatchPlane::update_pending_gauges() {
  pending_depth_gauge().set(static_cast<double>(pending_.depth()));
  const SimTime oldest = pending_.oldest_enqueued();
  pending_age_gauge().set(
      pending_.empty() ? 0.0
                       : static_cast<double>(sim_.now() - oldest) /
                             static_cast<double>(kMillisecond));
}

void DispatchPlane::on_worker_notify(std::size_t worker, Instance* self,
                                     InvocationId id) {
  const Assignment& assignment = assignments_[id];
  // Stale: the invocation already reached a terminal outcome, moved to
  // another worker, or this notify came from a dead incarnation. Real
  // clusters deduplicate exactly this way — a worker declared dead may
  // still deliver results (at-least-once); the plane keeps the first
  // terminal outcome and drops the rest.
  if (assignment.terminal ||
      assignment.worker != static_cast<std::uint32_t>(worker) ||
      slots_[worker].instance.get() != self) {
    return;
  }
  const core::InvocationRecord& local = self->worker.records()[id];
  if (local.outcome == core::Outcome::kShed) {
    // Admission rejection is front-door and synchronous with routing:
    // the caller saw it immediately, so it stands even if the worker has
    // silently crashed or wedged since.
    account_shed(worker, id);
    return;
  }
  if (self->crashed) return;  // lost with the VM; failover reclaims it
  if (sim_.now() < self->stalled_until) {
    self->stalled_completions.push_back(id);
    return;
  }
  merge_completion(worker, local, id);
}

void DispatchPlane::account_shed(std::size_t worker, InvocationId id) {
  core::InvocationRecord& global = records_[id];
  global.outcome = core::Outcome::kShed;
  global.returned = sim_.now();
  assignments_[id].terminal = true;
  Slot& slot = slots_[worker];
  --slot.outstanding;
  slot.result.outcomes.count(core::Outcome::kShed);
  // No chaos_.finish(): shed invocations never held an admission slot.
  account_one(worker);
  pump();  // the shed freed injection capacity
}

void DispatchPlane::merge_completion(std::size_t worker,
                                     const core::InvocationRecord& local,
                                     InvocationId id) {
  core::InvocationRecord& global = records_[id];
  global.dispatched = local.dispatched;
  global.cold_start = local.cold_start;
  global.exec_start = local.exec_start;
  global.exec_end = local.exec_end;
  // Stall-buffered completions return when the stall lifts, not when the
  // body finished inside the wedged worker.
  global.returned = std::max(local.returned, sim_.now());
  global.completed = local.completed;
  global.outcome = local.outcome;
  global.attempts += local.attempts;
  global.faults += local.faults;
  assignments_[id].terminal = true;
  Slot& slot = slots_[worker];
  --slot.outstanding;
  slot.result.outcomes.count(global.outcome);
  detector_.beat(worker, sim_.now());
  chaos_.finish();
  account_one(worker);
  pump();  // the completion freed injection capacity
}

void DispatchPlane::account_one(std::size_t worker) {
  ++accounted_;
  Slot& slot = slots_[worker];
  if (slot.state == WorkerState::kDraining && slot.outstanding == 0) {
    set_state(worker, WorkerState::kDrained);
  }
  if (accounted_ == total_) {
    makespan_ = sim_.now();
    done_ = true;
    sim_.stop();
  }
}

void DispatchPlane::scan() {
  if (done_) return;
  ++scans_;
  const SimTime now = sim_.now();
  recover_stalls(now);
  inject_worker_faults(now);
  assess_health(now);
  if (!done_ && scans_ < kMaxScans) {
    sim_.schedule_after(detector_.options().scan_interval, [this] { scan(); });
  }
}

void DispatchPlane::recover_stalls(SimTime now) {
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    Slot& slot = slots_[w];
    Instance* instance = slot.instance.get();
    if (instance == nullptr || instance->crashed ||
        instance->stalled_until == 0 || now < instance->stalled_until) {
      continue;
    }
    // The wedge lifted before death was confirmed: the worker rejoins
    // warm and delivers everything it finished while frozen.
    instance->stalled_until = 0;
    std::vector<InvocationId> buffered =
        std::move(instance->stalled_completions);
    instance->stalled_completions.clear();
    for (const InvocationId id : buffered) {
      const Assignment& assignment = assignments_[id];
      if (assignment.terminal ||
          assignment.worker != static_cast<std::uint32_t>(w)) {
        continue;
      }
      merge_completion(w, instance->worker.records()[id], id);
    }
    detector_.beat(w, now);
  }
}

void DispatchPlane::inject_worker_faults(SimTime now) {
  const resilience::FaultPlan& plan = chaos_.injector().plan();
  if (!plan.worker_faults()) return;
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    Slot& slot = slots_[w];
    if (slot.state != WorkerState::kUp && slot.state != WorkerState::kSuspect) {
      continue;
    }
    Instance* instance = slot.instance.get();
    if (instance->crashed || now < instance->stalled_until) continue;
    // Eligibility is checked before drawing, so FaultStats counts applied
    // faults exactly; the last healthy worker is spared so the cluster
    // can always make progress (and a one-worker cluster never crashes).
    if (healthy_live_count() > 1 && chaos_.injector().inject_worker_crash()) {
      instance->crashed = true;
      ++slot.result.crashes;
      continue;  // a dead VM cannot additionally wedge
    }
    if (chaos_.injector().inject_worker_stall()) {
      instance->stalled_until =
          now + static_cast<SimDuration>(
                    plan.worker_stall_multiplier *
                    static_cast<double>(detector_.options().suspect_after));
      ++slot.result.stalls;
    }
  }
}

void DispatchPlane::assess_health(SimTime now) {
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    if (done_) return;
    Slot& slot = slots_[w];
    if (slot.state != WorkerState::kUp &&
        slot.state != WorkerState::kSuspect &&
        slot.state != WorkerState::kDraining) {
      continue;
    }
    switch (detector_.assess(w, now, slot.outstanding)) {
      case HealthVerdict::kHealthy:
        if (slot.state == WorkerState::kSuspect) set_state(w, WorkerState::kUp);
        break;
      case HealthVerdict::kSuspect:
        if (slot.state == WorkerState::kUp) set_state(w, WorkerState::kSuspect);
        break;
      case HealthVerdict::kDead:
        // Last-live guard: the final routable worker is never declared
        // dead (nobody could absorb its failover), it just stays
        // suspect. Draining workers are exempt — they are leaving anyway.
        if (slot.state == WorkerState::kDraining || live_count() > 1) {
          declare_dead(w, now);
        } else if (slot.state == WorkerState::kUp) {
          set_state(w, WorkerState::kSuspect);
        }
        break;
    }
  }
}

void DispatchPlane::declare_dead(std::size_t worker, SimTime now) {
  Slot& slot = slots_[worker];
  const bool draining = slot.state == WorkerState::kDraining;
  ++slot.death_epoch;
  set_state(worker, draining ? WorkerState::kDrained : WorkerState::kDead);

  Instance* instance = slot.instance.get();
  instance->crashed = true;  // stalled/healthy instances die the same way
  // The dead VM never dismantles itself gracefully: its containers may
  // hold in-flight CPU tasks forever (zombie execution, results dropped).
  instance->worker.machine().condemn();
  slot.result.containers_provisioned +=
      instance->worker.pool().stats().total_provisioned;
  slot.zombies.push_back(std::move(slot.instance));

  // Backlog work was bound here but never injected — it rode no attempt
  // and died with nothing. It returns to the head of the pending queue
  // (no attempt charge, no fault) for survivors to pull.
  requeue_backlog(worker);

  // Everything routed here and not yet terminal is stranded, in id order
  // for determinism.
  std::vector<InvocationId> stranded;
  for (std::size_t i = 0; i < assignments_.size(); ++i) {
    if (!assignments_[i].terminal &&
        assignments_[i].worker == static_cast<std::uint32_t>(worker)) {
      stranded.push_back(static_cast<InvocationId>(i));
    }
  }

  // The black box names the oldest stranded invocation: the one the
  // on-call engineer will be asked about first.
  InvocationId oldest = 0;
  std::uint64_t oldest_span = 0;
  for (const InvocationId id : stranded) {
    if (oldest_span == 0 || records_[id].arrival < records_[oldest].arrival) {
      oldest = id;
      oldest_span = obs::invocation_root_span(id);
    }
  }
  obs::flight().incident("worker_death", now, oldest, oldest_span);

  for (const InvocationId id : stranded) {
    core::InvocationRecord& global = records_[id];
    // The death consumed (at least) one attempt, even for invocations
    // still queued inside the worker — they rode the VM down with it.
    global.attempts +=
        std::max<std::uint32_t>(instance->worker.records()[id].attempts, 1);
    ++global.faults;
    assignments_[id].worker = kUnassignedWorker;
    --slot.outstanding;
    chaos_.finish();  // release the admission slot before re-admission
    const std::uint64_t root = obs::invocation_root_span(id);
    obs::flight().record(obs::FlightEventKind::kFault,
                         static_cast<std::uint32_t>(worker), now, id,
                         obs::attempt_span(root, global.attempts),
                         global.attempts);
    SimDuration backoff = 0;
    if (chaos_.plan_retry(id, global.attempts, global.arrival, now, &backoff)) {
      ++slot.result.outcomes.re_dispatched;
      redispatch_total().inc();
      obs::flight().record(obs::FlightEventKind::kRetry,
                           static_cast<std::uint32_t>(worker), now, id,
                           obs::attempt_span(root, global.attempts),
                           global.attempts);
      sim_.schedule_after(backoff, [this, id] { enqueue(id); });
    } else {
      global.outcome = core::Outcome::kFailed;
      global.returned = now;
      assignments_[id].terminal = true;
      slot.result.outcomes.count(core::Outcome::kFailed);
      obs::flight().incident("terminal_failure", now, id, root);
      account_one(worker);
    }
  }

  pump();  // requeued backlog needs a live puller now, not next arrival

  if (draining) return;  // a dying drain completes the drain; no restart
  sim_.schedule_after(
      chaos_.injector().plan().worker_restart_latency,
      [this, worker, epoch = slot.death_epoch] {
        restart_worker(worker, epoch);
      });
}

void DispatchPlane::restart_worker(std::size_t worker, std::uint64_t epoch) {
  if (done_) return;
  Slot& slot = slots_[worker];
  // An operator rejoin (or a rejoin-then-redeath) supersedes this
  // restart; the epoch pins it to the death that scheduled it.
  if (slot.state != WorkerState::kDead || slot.death_epoch != epoch) return;
  // Cold: empty pool, no clients.
  slot.instance = std::make_unique<Instance>(*this, worker);
  ++slot.result.restarts;
  detector_.reset(worker, sim_.now());
  set_state(worker, WorkerState::kUp);
  pump();  // a fresh worker is a fresh puller
}

void DispatchPlane::apply_action(const OperatorAction& action) {
  if (done_) return;
  Slot& slot = slots_[action.worker];
  switch (action.kind) {
    case OperatorAction::Kind::kDrain:
      if (slot.state != WorkerState::kUp &&
          slot.state != WorkerState::kSuspect) {
        return;
      }
      // Un-injected backlog leaves with the drain — it belongs to the
      // queue again, not to a worker that is going away.
      requeue_backlog(action.worker);
      set_state(action.worker, slot.outstanding == 0 ? WorkerState::kDrained
                                                     : WorkerState::kDraining);
      pump();
      return;
    case OperatorAction::Kind::kRejoin:
      if (slot.state != WorkerState::kDead &&
          slot.state != WorkerState::kDrained) {
        return;
      }
      // A drained (never-died) instance still has keepalive timers in
      // flight; retire it as a zombie rather than destroying it mid-run.
      if (slot.instance != nullptr) {
        slot.result.containers_provisioned +=
            slot.instance->worker.pool().stats().total_provisioned;
        slot.zombies.push_back(std::move(slot.instance));
      }
      slot.instance = std::make_unique<Instance>(*this, action.worker);
      detector_.reset(action.worker, sim_.now());
      set_state(action.worker, WorkerState::kUp);
      pump();
      return;
  }
}

std::size_t DispatchPlane::live_count() const {
  std::size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.state == WorkerState::kUp || slot.state == WorkerState::kSuspect) {
      ++live;
    }
  }
  return live;
}

std::size_t DispatchPlane::healthy_live_count() const {
  std::size_t healthy = 0;
  for (const Slot& slot : slots_) {
    if ((slot.state == WorkerState::kUp ||
         slot.state == WorkerState::kSuspect) &&
        slot.instance != nullptr && !slot.instance->crashed) {
      ++healthy;
    }
  }
  return healthy;
}

ClusterResult DispatchPlane::finish() {
  if (accounted_ != total_) {
    throw std::runtime_error(
        "DispatchPlane: " + std::to_string(total_ - accounted_) +
        " invocations never terminally accounted (stranded)");
  }

  ClusterResult result;
  result.accounted = accounted_;
  result.makespan = makespan_;
  for (const core::InvocationRecord& record : records_) {
    if (record.outcome == core::Outcome::kCompleted) {
      result.latency.add(record.breakdown());
    }
  }

  result.fault_stats = chaos_.injector().stats();
  std::uint64_t fingerprint = chaos_.fingerprint();
  result.workers.reserve(slots_.size());
  for (Slot& slot : slots_) {
    WorkerResult worker = slot.result;
    worker.final_state = slot.state;
    if (slot.instance != nullptr) {
      runtime::Machine& machine = slot.instance->worker.machine();
      worker.containers_provisioned +=
          slot.instance->worker.pool().stats().total_provisioned;
      worker.memory_avg_mib = to_mib(static_cast<Bytes>(
          machine.memory_gauge().time_average(makespan_)));
      worker.cpu_utilization = machine.cpu_utilization(makespan_);
    }
    result.completed += worker.outcomes.completed;
    result.failed += worker.outcomes.failed;
    result.shed += worker.outcomes.shed;
    result.re_dispatched += worker.outcomes.re_dispatched;
    result.transfer += worker.transfer;
    fingerprint = hash_combine(fingerprint, worker.outcomes.fingerprint());
    fingerprint = hash_combine(fingerprint, worker.transfer.fingerprint());
    fingerprint = fnv1a_u64(worker.restarts, fingerprint);
    fingerprint =
        fnv1a_u64(static_cast<std::uint64_t>(worker.final_state), fingerprint);
    result.workers.push_back(std::move(worker));
  }
  result.chaos_fingerprint = fingerprint;
  return result;
}

}  // namespace faasbatch::cluster
