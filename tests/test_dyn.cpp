// Dynamic-graph subsystem suite: deterministic edit batches
// (dyn/mutation), the byte-bounded graph store (dyn/graph_store), the
// fingerprint lineage DAG (dyn/lineage), and the warm-start pipeline
// (dyn/warm). The service-level behavior of the `mutate` op lives in
// test_svc.cpp; this file pins the layer underneath it.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/dyn/graph_store.hpp"
#include "gbis/dyn/lineage.hpp"
#include "gbis/dyn/mutation.hpp"
#include "gbis/dyn/warm.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {
namespace {

Graph make_path(Vertex n) {
  GraphBuilder builder(n);
  for (Vertex v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

MutationBatch add_edge_batch(std::uint64_t u, std::uint64_t v) {
  MutationBatch batch;
  batch.add_edges = {u, v};
  return batch;
}

// --- apply_mutation --------------------------------------------------------

TEST(Mutation, AddEdgeProducesExpectedChild) {
  const Graph parent = make_path(3);  // 0-1-2
  const MutationResult result = apply_mutation(parent, add_edge_batch(0, 2));
  EXPECT_EQ(result.child.num_vertices(), 3u);
  EXPECT_EQ(result.child.num_edges(), 3u);
  EXPECT_TRUE(result.child.has_edge(0, 2));
  // No vertex changes: the map is the identity.
  ASSERT_EQ(result.map.size(), 3u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(result.map[v], v);
}

TEST(Mutation, AddVerticesAppendsIsolatedWeightOne) {
  const Graph parent = make_path(2);
  MutationBatch batch;
  batch.add_vertices = 2;
  const MutationResult result = apply_mutation(parent, batch);
  ASSERT_EQ(result.child.num_vertices(), 4u);
  EXPECT_EQ(result.child.num_edges(), 1u);
  EXPECT_EQ(result.child.degree(2), 0u);
  EXPECT_EQ(result.child.vertex_weight(3), 1);
  // New ids are addressable by the same batch's edge edits.
  MutationBatch wired;
  wired.add_vertices = 1;
  wired.add_edges = {2, 0};
  const MutationResult wired_result = apply_mutation(parent, wired);
  EXPECT_TRUE(wired_result.child.has_edge(0, 2));
}

TEST(Mutation, DuplicateEdgeAddThrows) {
  const Graph parent = make_path(3);
  // Duplicate of a parent edge.
  EXPECT_THROW(apply_mutation(parent, add_edge_batch(0, 1)),
               std::invalid_argument);
  // Duplicate within the batch (either orientation).
  MutationBatch twice;
  twice.add_edges = {0, 2, 2, 0};
  EXPECT_THROW(apply_mutation(parent, twice), std::invalid_argument);
}

TEST(Mutation, SelfLoopAndOutOfRangeEndpointsThrow) {
  const Graph parent = make_path(3);
  EXPECT_THROW(apply_mutation(parent, add_edge_batch(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(apply_mutation(parent, add_edge_batch(0, 3)),
               std::invalid_argument);
  MutationBatch del_oob;
  del_oob.del_edges = {0, 9};
  EXPECT_THROW(apply_mutation(parent, del_oob), std::invalid_argument);
}

TEST(Mutation, OddEdgeListThrows) {
  const Graph parent = make_path(3);
  MutationBatch odd;
  odd.add_edges = {0};
  EXPECT_THROW(apply_mutation(parent, odd), std::invalid_argument);
  MutationBatch odd_del;
  odd_del.del_edges = {0, 1, 2};
  EXPECT_THROW(apply_mutation(parent, odd_del), std::invalid_argument);
}

TEST(Mutation, DeletingNonexistentEdgeThrows) {
  const Graph parent = make_path(3);
  MutationBatch missing;
  missing.del_edges = {0, 2};  // never existed
  EXPECT_THROW(apply_mutation(parent, missing), std::invalid_argument);
  MutationBatch twice;
  twice.del_edges = {0, 1, 1, 0};  // second delete sees it gone
  EXPECT_THROW(apply_mutation(parent, twice), std::invalid_argument);
}

TEST(Mutation, DeletingBatchAddedEdgeIsANetNoop) {
  const Graph parent = make_path(3);
  MutationBatch batch;
  batch.add_edges = {0, 2};
  batch.del_edges = {2, 0};  // the batch's own edge, other orientation
  const MutationResult result = apply_mutation(parent, batch);
  EXPECT_EQ(graph_fingerprint(result.child), graph_fingerprint(parent));
  EXPECT_GT(batch.edit_distance(), 0u);  // edits happened, net zero
}

TEST(Mutation, VertexDeletionRenumbersCompactly) {
  const Graph parent = make_path(4);  // 0-1-2-3
  MutationBatch batch;
  batch.del_vertices = {1};
  const MutationResult result = apply_mutation(parent, batch);
  ASSERT_EQ(result.child.num_vertices(), 3u);
  // Survivors renumber in ascending old-id order: 0->0, 2->1, 3->2.
  ASSERT_EQ(result.map.size(), 4u);
  EXPECT_EQ(result.map[0], 0u);
  EXPECT_EQ(result.map[1], kDeletedVertex);
  EXPECT_EQ(result.map[2], 1u);
  EXPECT_EQ(result.map[3], 2u);
  // Incident edges (0,1) and (1,2) vanish; (2,3) survives as (1,2).
  EXPECT_EQ(result.child.num_edges(), 1u);
  EXPECT_TRUE(result.child.has_edge(1, 2));
}

TEST(Mutation, VertexDeletionPreservesSurvivorWeights) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.set_vertex_weight(2, 7);
  const Graph parent = builder.build();
  MutationBatch batch;
  batch.del_vertices = {0};
  const MutationResult result = apply_mutation(parent, batch);
  EXPECT_EQ(result.child.vertex_weight(result.map[2]), 7);
}

TEST(Mutation, DuplicateOrOutOfRangeVertexDeleteThrows) {
  const Graph parent = make_path(4);
  MutationBatch twice;
  twice.del_vertices = {1, 1};
  EXPECT_THROW(apply_mutation(parent, twice), std::invalid_argument);
  MutationBatch oob;
  oob.del_vertices = {4};
  EXPECT_THROW(apply_mutation(parent, oob), std::invalid_argument);
}

TEST(Mutation, ApplyIsDeterministic) {
  const Graph parent = make_grid(4, 4);
  MutationBatch batch;
  batch.add_vertices = 2;
  batch.add_edges = {16, 0, 17, 5};
  batch.del_edges = {0, 1};
  batch.del_vertices = {3};
  const MutationResult a = apply_mutation(parent, batch);
  const MutationResult b = apply_mutation(parent, batch);
  EXPECT_EQ(graph_fingerprint(a.child), graph_fingerprint(b.child));
  EXPECT_EQ(a.map, b.map);
}

TEST(Mutation, BatchHashIsOrderAndFieldSensitive) {
  MutationBatch a;
  a.add_edges = {0, 1, 2, 3};
  MutationBatch b;
  b.add_edges = {2, 3, 0, 1};
  EXPECT_NE(a.hash(), b.hash());
  // The same numbers in a different field are a different batch.
  MutationBatch c;
  c.del_edges = {0, 1, 2, 3};
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), MutationBatch{a}.hash());
}

// --- GraphStore ------------------------------------------------------------

std::shared_ptr<const Graph> shared_path(Vertex n) {
  return std::make_shared<const Graph>(make_path(n));
}

TEST(GraphStore, EvictsLeastRecentlyUsedFirst) {
  const auto g = shared_path(8);
  const std::uint64_t unit = graph_bytes(*g);
  GraphStore store(2 * unit);  // room for two path-8 graphs
  store.insert(1, shared_path(8));
  store.insert(2, shared_path(8));
  ASSERT_NE(store.lookup(1), nullptr);  // promote 1; 2 is now LRU
  store.insert(3, shared_path(8));
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_TRUE(store.contains(3));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST(GraphStore, OversizedGraphIsStillAdmittedAlone) {
  const auto small = shared_path(4);
  GraphStore store(graph_bytes(*small));
  store.insert(1, small);
  store.insert(2, shared_path(64));  // far over budget
  EXPECT_FALSE(store.contains(1));
  EXPECT_TRUE(store.contains(2));
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(GraphStore, LookupCountsHitsAndMisses) {
  GraphStore store(1 << 20);
  store.insert(1, shared_path(4));
  EXPECT_NE(store.lookup(1), nullptr);
  EXPECT_EQ(store.lookup(2), nullptr);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 1u);
  // contains() never counts.
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(GraphStore, SharedPtrKeepsEvictedGraphAlive) {
  const auto g = shared_path(8);
  GraphStore store(graph_bytes(*g));
  store.insert(1, g);
  const std::shared_ptr<const Graph> held = store.lookup(1);
  store.insert(2, shared_path(8));  // evicts 1
  ASSERT_FALSE(store.contains(1));
  EXPECT_EQ(held->num_vertices(), 8u);  // the handed-out copy survives
}

// --- SvcLineage ------------------------------------------------------------

LineageRecord make_record(std::uint64_t parent, std::uint64_t child,
                          std::uint64_t batch_hash, std::uint32_t depth,
                          std::vector<Vertex> map = {0, 1, 2, 3}) {
  LineageRecord record;
  record.parent = parent;
  record.child = child;
  record.batch_hash = batch_hash;
  record.edit_distance = 1;
  record.depth = depth;
  record.parent_vertices = 4;
  record.vadds = map.empty() ? 0 : map.size() - 4;
  record.child_vertices = 4;
  record.map = std::move(map);
  return record;
}

TEST(SvcLineage, IndexesByChildAndByBatch) {
  SvcLineage lineage(8, 16);
  const auto [stored, inserted] =
      lineage.insert(make_record(100, 200, 7, 1));
  ASSERT_TRUE(inserted);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(lineage.by_child(200), stored);
  EXPECT_EQ(lineage.by_batch(100, 7), stored);
  EXPECT_EQ(lineage.by_child(100), nullptr);
  EXPECT_EQ(lineage.by_batch(100, 8), nullptr);
  EXPECT_EQ(lineage.depth_of(200), 1u);
  EXPECT_EQ(lineage.depth_of(100), 0u);  // roots have no record
}

TEST(SvcLineage, FirstRecordWins) {
  SvcLineage lineage(8, 16);
  lineage.insert(make_record(100, 200, 7, 1));
  // A second edge claiming the same child is a duplicate re-derivation.
  const auto [stored, inserted] = lineage.insert(make_record(101, 200, 9, 2));
  EXPECT_FALSE(inserted);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->parent, 100u);
  EXPECT_EQ(lineage.size(), 1u);
}

TEST(SvcLineage, RepeatInsertNeverRewritesTheStoredRecord) {
  SvcLineage lineage(8, 16);
  // A record restored from a pre-id journal line with vdels > 0:
  // identity only, its map unknown.
  LineageRecord restored = make_record(100, 200, 7, 1);
  restored.vdels = 1;
  restored.child_vertices = 3;
  restored.map = VertexMap();
  lineage.insert(std::move(restored));
  // Re-materializing the same derivation finds the child known and
  // leaves the stored record as it was: no map is healed in place.
  LineageRecord live = make_record(100, 200, 7, 1, {0, kDeletedVertex, 1, 2});
  live.vdels = 1;
  live.child_vertices = 3;
  const auto [stored, inserted] = lineage.insert(std::move(live));
  EXPECT_FALSE(inserted);
  ASSERT_EQ(stored, lineage.by_child(200));
  EXPECT_FALSE(stored->map.known());
  EXPECT_EQ(lineage.size(), 1u);
}

TEST(SvcLineage, FullStoreRefusesNewRecords) {
  SvcLineage lineage(8, 1);
  ASSERT_TRUE(lineage.insert(make_record(100, 200, 7, 1)).second);
  EXPECT_TRUE(lineage.full());
  const auto [stored, inserted] = lineage.insert(make_record(200, 300, 7, 2));
  EXPECT_EQ(stored, nullptr);
  EXPECT_FALSE(inserted);
  // A repeat of the resident record still answers.
  EXPECT_NE(lineage.insert(make_record(100, 200, 7, 1)).first, nullptr);
}

TEST(SvcLineage, PointersSurviveLaterInserts) {
  SvcLineage lineage(64, 4096);
  const LineageRecord* first = lineage.insert(make_record(0, 1, 1, 1)).first;
  for (std::uint64_t i = 1; i < 1000; ++i) {
    lineage.insert(make_record(i, i + 1, 1, static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(first->child, 1u);  // deque storage: no reallocation
  EXPECT_EQ(lineage.by_child(1), first);
}

// --- Warm start ------------------------------------------------------------

TEST(WarmStart, PlanWalksToTheNearestCachedAncestor) {
  SvcLineage lineage(8, 16);
  lineage.insert(make_record(100, 200, 1, 1));
  lineage.insert(make_record(200, 300, 2, 2));
  WarmPlan plan;
  // Only the root has a result: the chain covers both edges.
  ASSERT_TRUE(plan_warm_start(
      lineage, 300, 100, [](std::uint64_t fp) { return fp == 100; }, plan));
  EXPECT_EQ(plan.ancestor, 100u);
  EXPECT_EQ(plan.cumulative_edits, 2u);
  ASSERT_EQ(plan.chain.size(), 2u);
  EXPECT_EQ(plan.chain[0]->child, 200u);  // ancestor-down order
  EXPECT_EQ(plan.chain[1]->child, 300u);
  // The middle graph has a result too: the shorter chain wins.
  ASSERT_TRUE(plan_warm_start(
      lineage, 300, 100, [](std::uint64_t fp) { return fp == 200; }, plan));
  EXPECT_EQ(plan.ancestor, 200u);
  EXPECT_EQ(plan.chain.size(), 1u);
}

TEST(WarmStart, PlanGivesUpPastEditBudgetOrUnknownMapEdge) {
  SvcLineage lineage(8, 16);
  lineage.insert(make_record(100, 200, 1, 1));
  lineage.insert(make_record(200, 300, 2, 2));
  WarmPlan plan;
  // Cumulative edits (2) exceed the budget (1).
  EXPECT_FALSE(plan_warm_start(
      lineage, 300, 1, [](std::uint64_t fp) { return fp == 100; }, plan));
  // An edge whose map is unknown (a pre-id journal line with vdels >
  // 0) is non-projectable.
  SvcLineage restored(8, 16);
  LineageRecord unknown = make_record(100, 200, 1, 1);
  unknown.map = VertexMap();
  restored.insert(std::move(unknown));
  EXPECT_FALSE(plan_warm_start(
      restored, 200, 100, [](std::uint64_t fp) { return fp == 100; }, plan));
  // A map derived from no deleted ids is projectable.
  SvcLineage derived(8, 16);
  LineageRecord identity = make_record(100, 200, 1, 1);
  identity.map = VertexMap(4, {});
  derived.insert(std::move(identity));
  EXPECT_TRUE(plan_warm_start(
      derived, 200, 100, [](std::uint64_t fp) { return fp == 100; }, plan));
  // No cached ancestor anywhere: the walk reaches the root and fails.
  EXPECT_FALSE(plan_warm_start(
      lineage, 300, 100, [](std::uint64_t) { return false; }, plan));
}

TEST(WarmStart, ProjectSidesFollowsMapsAndMarksNewVertices) {
  SvcLineage lineage(8, 16);
  // Edge 1: delete vertex 1 of a 4-vertex parent (map 0,-,1,2), then
  // add one vertex -> child has 4 vertices, the last one chain-born.
  LineageRecord edge;
  edge.parent = 100;
  edge.child = 200;
  edge.batch_hash = 1;
  edge.depth = 1;
  edge.parent_vertices = 4;
  edge.vadds = 1;
  edge.child_vertices = 4;
  edge.map = std::vector<Vertex>{0, kDeletedVertex, 1, 2, 3};
  const LineageRecord* stored = lineage.insert(std::move(edge)).first;
  WarmPlan plan;
  plan.ancestor = 100;
  plan.chain = {stored};
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(project_sides(plan, {0, 0, 1, 1}, out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0);             // parent 0
  EXPECT_EQ(out[1], 1);             // parent 2
  EXPECT_EQ(out[2], 1);             // parent 3
  EXPECT_EQ(out[3], kUnplacedSide);  // chain-born
  // Shape mismatch (stale plan) is detected, not mis-projected.
  EXPECT_FALSE(project_sides(plan, {0, 0, 1}, out));
}

TEST(WarmStart, WarmSolveFinishesAProjectedPartition) {
  const Graph g = make_grid(4, 4);
  // Seed: the left half placed, the right half unplaced.
  std::vector<std::uint8_t> seeded(16, kUnplacedSide);
  for (Vertex v = 0; v < 16; ++v) {
    if (v % 4 < 2) seeded[v] = 0;
  }
  const WarmSolveResult result =
      warm_solve(g, seeded, /*max_passes=*/4, Deadline());
  ASSERT_EQ(result.sides.size(), 16u);
  Weight left = 0;
  for (const std::uint8_t side : result.sides) {
    ASSERT_LE(side, 1);  // every sentinel was placed
    if (side == 0) ++left;
  }
  EXPECT_EQ(left, 8);  // balanced
  // The 4x4 grid's optimal bisection cuts 4 edges; a warm refinement
  // of a half-good seed must find it.
  EXPECT_EQ(result.cut, 4);
  // Pure function of its inputs.
  const WarmSolveResult again =
      warm_solve(g, seeded, /*max_passes=*/4, Deadline());
  EXPECT_EQ(again.cut, result.cut);
  EXPECT_EQ(again.sides, result.sides);
}

TEST(WarmStart, WarmSolveRejectsWrongSeedShape) {
  const Graph g = make_path(4);
  EXPECT_THROW(warm_solve(g, std::vector<std::uint8_t>(3, 0), 4, Deadline()),
               std::invalid_argument);
}

// --- Derived vertex maps --------------------------------------------------

struct BatchShape {
  std::uint64_t add_edges = 0;
  std::uint64_t del_edges = 0;
  std::uint64_t add_vertices = 0;
  std::uint64_t del_parent = 0;  // deletions of parent vertices
  std::uint64_t del_born = 0;    // deletions of batch-added vertices
};

// A valid batch of (at most) `shape` over `g`; vertex deletions come
// out in random order, as a client may send them.
MutationBatch random_batch(const Graph& g, const BatchShape& shape, Rng& rng) {
  MutationBatch batch;
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t extended = n + shape.add_vertices;
  batch.add_vertices = shape.add_vertices;
  std::vector<std::uint64_t> added;
  for (std::uint64_t tries = 0;
       added.size() < 2 * shape.add_edges && tries < 64 && extended >= 2;
       ++tries) {
    const std::uint64_t u = rng.below(extended), v = rng.below(extended);
    if (u == v || (u < n && v < n && g.has_edge(static_cast<Vertex>(u),
                                                static_cast<Vertex>(v)))) {
      continue;
    }
    bool repeat = false;
    for (std::size_t i = 0; i < added.size(); i += 2) {
      repeat |= (added[i] == u && added[i + 1] == v) ||
                (added[i] == v && added[i + 1] == u);
    }
    if (repeat) continue;
    added.push_back(u);
    added.push_back(v);
  }
  batch.add_edges = added;
  for (std::uint64_t tries = 0;
       batch.del_edges.size() < 2 * shape.del_edges && tries < 64 && n > 0;
       ++tries) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    if (g.degree(u) == 0) continue;
    const Vertex v = g.neighbors(u)[rng.below(g.degree(u))];
    bool repeat = false;
    for (std::size_t i = 0; i < batch.del_edges.size(); i += 2) {
      repeat |= (batch.del_edges[i] == u && batch.del_edges[i + 1] == v) ||
                (batch.del_edges[i] == v && batch.del_edges[i + 1] == u);
    }
    if (repeat) continue;
    batch.del_edges.push_back(u);
    batch.del_edges.push_back(v);
  }
  std::vector<std::uint64_t> parent_ids(n), born_ids(shape.add_vertices);
  for (std::uint64_t v = 0; v < n; ++v) parent_ids[v] = v;
  for (std::uint64_t v = 0; v < shape.add_vertices; ++v) born_ids[v] = n + v;
  std::shuffle(parent_ids.begin(), parent_ids.end(), rng);
  std::shuffle(born_ids.begin(), born_ids.end(), rng);
  parent_ids.resize(std::min(shape.del_parent, n));
  born_ids.resize(std::min(shape.del_born, shape.add_vertices));
  batch.del_vertices = parent_ids;
  batch.del_vertices.insert(batch.del_vertices.end(), born_ids.begin(),
                            born_ids.end());
  std::shuffle(batch.del_vertices.begin(), batch.del_vertices.end(), rng);
  return batch;
}

BatchShape random_shape(Rng& rng, std::uint64_t round) {
  BatchShape shape;
  shape.add_edges = rng.below(3);
  shape.del_edges = rng.below(3);
  shape.add_vertices = rng.below(5);
  if (round % 3 != 0) {  // every third batch deletes no vertex
    shape.del_parent = rng.below(4);
    shape.del_born = rng.below(shape.add_vertices + 1);
  }
  return shape;
}

Graph random_graph(std::uint32_t n, Rng& rng) {
  return make_gnp(n, n < 8 ? 0.5 : gnp_p_for_degree(n, 4.0), rng);
}

// The pre-derivation projection: walk each dense map entry by entry.
std::vector<std::uint8_t> dense_projection(
    const std::vector<std::vector<Vertex>>& maps,
    const std::vector<std::uint64_t>& parent_sizes,
    const std::vector<std::uint64_t>& child_sizes,
    std::vector<std::uint8_t> sides) {
  for (std::size_t k = 0; k < maps.size(); ++k) {
    std::vector<std::uint8_t> next(child_sizes[k], kUnplacedSide);
    for (std::size_t e = 0; e < parent_sizes[k]; ++e) {
      if (maps[k][e] != kDeletedVertex) next[maps[k][e]] = sides[e];
    }
    sides = std::move(next);
  }
  return sides;
}

TEST(VertexMapProperty, DerivedMapEqualsTheDenseMap) {
  Rng rng(20261020);
  for (const std::uint32_t n : {2u, 9u, 60u, 400u}) {
    const Graph g = random_graph(n, rng);
    for (std::uint64_t round = 0; round < 40; ++round) {
      const MutationBatch batch = random_batch(g, random_shape(rng, round), rng);
      const MutationResult result = apply_mutation(g, batch);
      // Both ways a record gets its map: converted from the dense one
      // (a live mutate) and derived from the sorted ids (the journal).
      const VertexMap converted = result.map;
      std::vector<Vertex> ids(batch.del_vertices.begin(),
                              batch.del_vertices.end());
      std::sort(ids.begin(), ids.end());
      const VertexMap derived(n + batch.add_vertices, ids);
      ASSERT_TRUE(converted.known());
      EXPECT_EQ(converted.deleted(), ids) << "n=" << n << " round=" << round;
      EXPECT_EQ(derived.extended(), result.map.size());
      EXPECT_EQ(derived.survivors(), result.child.num_vertices());
      for (std::uint64_t e = 0; e < result.map.size(); ++e) {
        ASSERT_EQ(converted[e], result.map[e])
            << "n=" << n << " round=" << round << " e=" << e;
        ASSERT_EQ(derived[e], result.map[e])
            << "n=" << n << " round=" << round << " e=" << e;
      }
    }
  }
}

TEST(VertexMapProperty, ChainProjectionMatchesTheDenseReference) {
  Rng rng(7);
  for (const std::uint32_t n : {9u, 60u, 400u}) {
    for (std::uint64_t chain_no = 0; chain_no < 12; ++chain_no) {
      Graph graph = random_graph(n, rng);
      const std::uint64_t root = graph_fingerprint(graph);
      const std::uint64_t length = 3 + rng.below(3);
      SvcLineage lineage(8, 16);
      WarmPlan plan;
      plan.ancestor = root;
      std::vector<std::vector<Vertex>> maps;
      std::vector<std::uint64_t> parent_sizes, child_sizes;
      std::uint64_t parent = root;
      for (std::uint64_t k = 0; k < length; ++k) {
        const MutationBatch batch =
            random_batch(graph, random_shape(rng, chain_no + k), rng);
        MutationResult result = apply_mutation(graph, batch);
        LineageRecord record;
        record.parent = parent;
        // Chain position keeps children distinct even when a batch
        // nets out to the parent graph.
        record.child = graph_fingerprint(result.child) ^ (k + 1);
        record.batch_hash = batch.hash();
        record.vadds = batch.add_vertices;
        record.vdels = batch.del_vertices.size();
        record.depth = static_cast<std::uint32_t>(k + 1);
        record.parent_vertices = graph.num_vertices();
        record.child_vertices = result.child.num_vertices();
        maps.push_back(result.map);
        parent_sizes.push_back(record.parent_vertices);
        child_sizes.push_back(record.child_vertices);
        record.map = std::move(result.map);
        const auto [stored, inserted] = lineage.insert(std::move(record));
        ASSERT_TRUE(inserted);
        plan.chain.push_back(stored);
        parent = stored->child;
        graph = std::move(result.child);
      }
      std::vector<std::uint8_t> sides(n);
      for (std::uint8_t& side : sides) side = rng.below(2) != 0 ? 1 : 0;
      std::vector<std::uint8_t> out;
      ASSERT_TRUE(project_sides(plan, sides, out));
      EXPECT_EQ(out, dense_projection(maps, parent_sizes, child_sizes, sides))
          << "n=" << n << " chain=" << chain_no;
      EXPECT_EQ(out.size(), graph.num_vertices());
    }
  }
}

TEST(SvcLineage, BytesDependOnRecordsNotOnGraphSize) {
  // The same small batch shape chained over a 5k- and a 50k-vertex
  // parent: the store's footprint is O(records + deleted ids).
  constexpr std::uint64_t kRecords = 24;
  constexpr std::uint64_t kBytesPerRecord = 512;
  BatchShape shape;
  shape.add_edges = 2;
  shape.del_edges = 2;
  shape.add_vertices = 2;
  shape.del_parent = 1;
  shape.del_born = 1;
  std::vector<std::uint64_t> bytes;
  for (const std::uint32_t n : {5000u, 50000u}) {
    Rng rng(n);
    Graph graph = make_gnp(n, gnp_p_for_degree(n, 5.0), rng);
    SvcLineage lineage(kRecords, kRecords);
    std::uint64_t parent = graph_fingerprint(graph);
    for (std::uint64_t k = 0; k < kRecords; ++k) {
      const MutationBatch batch = random_batch(graph, shape, rng);
      ASSERT_EQ(batch.del_vertices.size(), 2u);
      MutationResult result = apply_mutation(graph, batch);
      LineageRecord record;
      record.parent = parent;
      record.child = graph_fingerprint(result.child);
      record.batch_hash = batch.hash();
      record.vadds = batch.add_vertices;
      record.vdels = batch.del_vertices.size();
      record.depth = static_cast<std::uint32_t>(k + 1);
      record.parent_vertices = graph.num_vertices();
      record.child_vertices = result.child.num_vertices();
      record.map = std::move(result.map);
      parent = record.child;
      ASSERT_TRUE(lineage.insert(std::move(record)).second);
      graph = std::move(result.child);
    }
    EXPECT_LE(lineage.bytes(), kBytesPerRecord * kRecords) << "n=" << n;
    bytes.push_back(lineage.bytes());
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace gbis
