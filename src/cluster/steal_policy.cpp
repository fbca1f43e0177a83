#include "cluster/steal_policy.hpp"

#include <algorithm>

namespace faasbatch::cluster {

std::optional<std::size_t> pick_victim(
    const std::vector<std::size_t>& backlog_depths, std::size_t thief) {
  std::optional<std::size_t> victim;
  std::size_t deepest = 0;
  for (std::size_t w = 0; w < backlog_depths.size(); ++w) {
    if (w == thief) continue;
    const std::size_t depth = backlog_depths[w];
    if (depth < kMinVictimBacklog) continue;
    if (!victim.has_value() || depth > deepest) {
      victim = w;
      deepest = depth;
    }
  }
  return victim;
}

std::size_t steal_budget(std::size_t victim_backlog) {
  return std::min((victim_backlog + 1) / 2, kMaxSteal);
}

std::vector<std::size_t> select_steal_indices(
    const std::deque<PendingItem>& backlog, std::size_t budget,
    const std::function<bool(FunctionId)>& thief_warm,
    const std::function<bool(FunctionId)>& thief_affine) {
  std::vector<std::size_t> picked;
  if (budget == 0 || backlog.empty()) return picked;
  picked.reserve(std::min(budget, backlog.size()));
  // Warm beats affine beats neither; the newest item of the better class
  // beats the oldest of the worse one, so scan back-to-front per class.
  for (const int wanted : {2, 1, 0}) {
    for (std::size_t back = backlog.size(); back > 0; --back) {
      const std::size_t index = back - 1;
      const FunctionId function = backlog[index].function;
      const int score = thief_warm(function)     ? 2
                        : thief_affine(function) ? 1
                                                 : 0;
      if (score != wanted) continue;
      picked.push_back(index);
      if (picked.size() == budget) {
        std::sort(picked.begin(), picked.end());
        return picked;
      }
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace faasbatch::cluster
