// Warm-start re-solve: turn a cached ancestor partition into a good
// starting partition for a mutated descendant, then refine with
// bounded KL instead of cold portfolio racing.
//
// Pipeline (docs/SERVICE.md "Warm-start solves"):
//   1. plan  — walk the lineage rootward from the solve target until a
//      fingerprint with a cached partition appears; give up past a
//      cumulative-edit or non-projectable (unknown-map) edge (dispatch
//      thread, cheap).
//   2. project — push the ancestor's side vector down the chain
//      through each edge's vertex map, derived from its deleted ids in
//      one merge pass; vertices born along the chain get the
//      kUnplacedSide sentinel (dispatch thread, O(chain · V)).
//   3. solve — greedy-place the sentinels, balance-repair, bounded KL
//      (worker thread, the only expensive part).
//
// Every step is a pure function of its inputs, so warm solves keep
// the service's byte-determinism contract at any GBIS_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gbis/dyn/lineage.hpp"
#include "gbis/graph/graph.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {

/// Side value in a projected vector for a vertex with no ancestor
/// counterpart (added along the chain): warm_solve places these.
inline constexpr std::uint8_t kUnplacedSide = 2;

/// A viable warm start found by plan_warm_start.
struct WarmPlan {
  std::uint64_t ancestor = 0;         ///< fingerprint with a cached partition
  std::uint64_t cumulative_edits = 0; ///< summed edit distance along the chain
  /// Lineage edges from the ancestor's child down to the solve target,
  /// in application order. Never empty on success.
  std::vector<const LineageRecord*> chain;
};

/// Walks the lineage rootward from `fingerprint`. Stops at the first
/// ancestor for which `has_result` is true; gives up at a root, a
/// non-projectable edge, a cycle/overlong walk, or once cumulative
/// edits exceed `max_edits`. Returns true and fills `plan` on success.
bool plan_warm_start(const SvcLineage& lineage, std::uint64_t fingerprint,
                     std::uint64_t max_edits,
                     const std::function<bool(std::uint64_t)>& has_result,
                     WarmPlan& plan);

/// Projects `ancestor_sides` down `plan.chain`. On success `out` has
/// one entry per target-graph vertex: 0/1 inherited from the ancestor,
/// kUnplacedSide for vertices added along the chain. Returns false on
/// any shape mismatch (stale plan) with `out` unspecified.
bool project_sides(const WarmPlan& plan,
                   const std::vector<std::uint8_t>& ancestor_sides,
                   std::vector<std::uint8_t>& out);

struct WarmSolveResult {
  Weight cut = 0;
  std::vector<std::uint8_t> sides;
  std::uint32_t kl_passes = 0;
};

/// Finishes a projected partition on the target graph: places each
/// kUnplacedSide vertex (ascending id) on the side holding more of its
/// already-placed neighbor weight (ties: the lighter side, then 0),
/// repairs balance, runs KL capped at `max_passes`. Deterministic;
/// throws DeadlineExceeded if `deadline` expires inside KL.
WarmSolveResult warm_solve(const Graph& g, std::vector<std::uint8_t> seeded,
                           std::uint32_t max_passes,
                           const Deadline& deadline);

}  // namespace gbis
