// Work-stealing policy for the pull-based dispatch plane.
//
// When the pending queue runs dry but a worker still has pulled-but-not-
// injected backlog (it pulled a whole function run to keep batches full
// and its capacity filled first), an idle worker steals from the most
// loaded backlog instead of sitting idle. Three pure decisions live
// here, separated from the plane so they can be property-tested:
//
//  * pick_victim    — deepest backlog at or above kMinVictimBacklog,
//                     never the thief itself; ties break to the lower
//                     worker index (deterministic).
//  * steal_budget   — how much one steal may take: half the victim's
//                     backlog (rounded up), capped at kMaxSteal. Taking
//                     half halves the imbalance per steal without
//                     ping-ponging the whole backlog.
//  * select_steal_indices — which items to take: the cluster shares
//                     warm-pool state, so items whose function the thief
//                     already holds warm score highest, then items the
//                     thief is rendezvous-affine for, then the rest.
//                     Within a score class the newest items (back of the
//                     victim's FIFO) go first, so the victim keeps FIFO
//                     progress on its oldest work and per-key arrival
//                     order survives the steal.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/pending_queue.hpp"

namespace faasbatch::cluster {

/// Backlogs shallower than this are never victimised (the imbalance is
/// not worth breaking up a batch run for).
inline constexpr std::size_t kMinVictimBacklog = 4;
/// Hard cap on invocations moved per steal.
inline constexpr std::size_t kMaxSteal = 16;

/// Deepest eligible backlog among `backlog_depths` (indexed by worker),
/// excluding `thief`; ties break to the lower index. nullopt when no
/// backlog reaches kMinVictimBacklog.
std::optional<std::size_t> pick_victim(
    const std::vector<std::size_t>& backlog_depths, std::size_t thief);

/// Invocations one steal may move from a backlog of `victim_backlog`:
/// ceil(victim_backlog / 2), capped at kMaxSteal.
std::size_t steal_budget(std::size_t victim_backlog);

/// Indices into `backlog` (ascending, so callers can erase descending and
/// append in original FIFO order) of the items a thief should take:
/// thief-warm functions first, then thief-affine, then the rest, newest
/// first within each class, up to `budget`.
std::vector<std::size_t> select_steal_indices(
    const std::deque<PendingItem>& backlog, std::size_t budget,
    const std::function<bool(FunctionId)>& thief_warm,
    const std::function<bool(FunctionId)>& thief_affine);

}  // namespace faasbatch::cluster
