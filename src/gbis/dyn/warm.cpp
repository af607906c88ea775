#include "gbis/dyn/warm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gbis/dyn/mutation.hpp"
#include "gbis/kl/kl.hpp"
#include "gbis/partition/balance.hpp"
#include "gbis/partition/bisection.hpp"

namespace gbis {

bool plan_warm_start(const SvcLineage& lineage, std::uint64_t fingerprint,
                     std::uint64_t max_edits,
                     const std::function<bool(std::uint64_t)>& has_result,
                     WarmPlan& plan) {
  std::vector<const LineageRecord*> walked;  // target-up order
  std::uint64_t current = fingerprint;
  std::uint64_t edits = 0;
  // The depth cap bounds every legal chain; +1 slack so a full-depth
  // chain still walks, and anything longer (a hypothetical cycle) stops.
  for (std::uint32_t steps = 0; steps <= lineage.max_depth() + 1; ++steps) {
    const LineageRecord* edge = lineage.by_child(current);
    if (edge == nullptr) return false;   // root reached, no cached ancestor
    if (!edge->map.known()) return false;  // pre-id journal line
    edits += edge->edit_distance;
    if (edits > max_edits) return false;
    walked.push_back(edge);
    if (has_result(edge->parent)) {
      plan.ancestor = edge->parent;
      plan.cumulative_edits = edits;
      plan.chain.assign(walked.rbegin(), walked.rend());
      return true;
    }
    current = edge->parent;
  }
  return false;
}

bool project_sides(const WarmPlan& plan,
                   const std::vector<std::uint8_t>& ancestor_sides,
                   std::vector<std::uint8_t>& out) {
  if (plan.chain.empty()) return false;
  if (std::any_of(ancestor_sides.begin(), ancestor_sides.end(),
                  [](std::uint8_t side) { return side > kUnplacedSide; })) {
    return false;
  }
  std::vector<std::uint8_t> current = ancestor_sides;
  for (const LineageRecord* edge : plan.chain) {
    const VertexMap& map = edge->map;
    if (!map.known() || current.size() != edge->parent_vertices ||
        map.extended() != edge->parent_vertices + edge->vadds ||
        map.survivors() != edge->child_vertices) {
      return false;
    }
    // One merge pass over the parent range: the runs between deleted
    // ids keep their order and close up, which is the compact
    // ascending renumbering. Chain-born vertices (extended ids past
    // the parent) renumber after every parent survivor and stay
    // kUnplacedSide.
    std::vector<std::uint8_t> next(edge->child_vertices, kUnplacedSide);
    auto to = next.begin();
    std::size_t from = 0;
    for (const Vertex dead : map.deleted()) {
      if (dead >= edge->parent_vertices) break;
      to = std::copy(current.begin() + from, current.begin() + dead, to);
      from = std::size_t{dead} + 1;
    }
    std::copy(current.begin() + from, current.end(), to);
    current = std::move(next);
  }
  out = std::move(current);
  return true;
}

WarmSolveResult warm_solve(const Graph& g, std::vector<std::uint8_t> seeded,
                           std::uint32_t max_passes,
                           const Deadline& deadline) {
  if (seeded.size() != g.num_vertices()) {
    throw std::invalid_argument("warm seed size mismatch");
  }
  Weight side_weight[2] = {0, 0};
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (seeded[v] <= 1) side_weight[seeded[v]] += g.vertex_weight(v);
  }
  // Place chain-born vertices in ascending id: the side holding more
  // of the already-placed neighbor weight; ties go to the lighter
  // side, then side 0. Ascending order makes earlier placements
  // visible to later ones, and the whole walk deterministic.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (seeded[v] != kUnplacedSide) continue;
    Weight attached[2] = {0, 0};
    const auto neighbors = g.neighbors(v);
    const auto weights = g.edge_weights(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const std::uint8_t side = seeded[neighbors[i]];
      if (side <= 1) attached[side] += weights[i];
    }
    int side = 0;
    if (attached[0] != attached[1]) {
      side = attached[0] > attached[1] ? 0 : 1;
    } else {
      side = side_weight[0] <= side_weight[1] ? 0 : 1;
    }
    seeded[v] = static_cast<std::uint8_t>(side);
    side_weight[side] += g.vertex_weight(v);
  }

  Bisection bisection(g, std::move(seeded));
  rebalance(bisection);
  KlOptions options;
  options.max_passes = max_passes;
  options.deadline = deadline;
  const KlStats stats = kl_refine(bisection, options);
  WarmSolveResult result;
  result.cut = bisection.cut();
  result.sides.assign(bisection.sides().begin(), bisection.sides().end());
  result.kl_passes = stats.passes;
  return result;
}

}  // namespace gbis
