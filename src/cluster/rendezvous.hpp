// Rendezvous (highest-random-weight) hashing for function affinity.
//
// Modulo hashing — hash(function) % workers — reshuffles almost every
// function's placement when the worker set changes by one, which under
// failover would dump the whole keyspace's warm state at once. Rendezvous
// hashing scores every (function, worker) pair independently and routes
// to the highest score among the *currently routable* workers, so
// removing worker k moves exactly the functions whose top-scoring worker
// was k (each to its runner-up) and leaves every other function's
// placement untouched. When k rejoins, precisely those functions return.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace faasbatch::cluster {

/// Deterministic score of placing `function` on `worker`; pure function
/// of the two ids (no per-run salt, so placements are stable across runs
/// and processes).
std::uint64_t rendezvous_score(FunctionId function, std::size_t worker);

/// Picks the highest-scoring worker for `function` among `candidates`
/// (worker indices, any order; ties break to the lower index). Undefined
/// for an empty candidate set — callers leave work queued when nobody
/// is routable.
std::size_t rendezvous_pick(FunctionId function,
                            const std::vector<std::size_t>& candidates);

}  // namespace faasbatch::cluster
