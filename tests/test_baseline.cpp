// Tests for the baseline bisectors: random, greedy region growing, and
// spectral.
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/baseline/greedy.hpp"
#include "gbis/baseline/random_bisect.hpp"
#include "gbis/baseline/spectral.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/rng/rng.hpp"

namespace gbis {
namespace {

TEST(RandomBaseline, BestOfTrialsIsMonotone) {
  Rng rng(1);
  const Graph g = make_gnp(60, 0.1, rng);
  Rng rng_a(2), rng_b(2);
  const Weight one = best_random_bisection(g, rng_a, 1).cut();
  const Weight twenty = best_random_bisection(g, rng_b, 20).cut();
  EXPECT_LE(twenty, one + 0);  // same stream start, strictly more trials
  EXPECT_THROW(best_random_bisection(g, rng, 0), std::invalid_argument);
}

TEST(RandomBaseline, ExpectedCutFormula) {
  // K4: every balanced split cuts exactly 4 of the 6 edges; the formula
  // must give exactly 4.
  const Graph g = make_complete(4);
  EXPECT_DOUBLE_EQ(expected_random_cut(g), 4.0);
  // Single edge on 2 vertices always crosses.
  EXPECT_DOUBLE_EQ(expected_random_cut(make_path(2)), 1.0);
  EXPECT_DOUBLE_EQ(expected_random_cut(Graph{}), 0.0);
}

TEST(RandomBaseline, EmpiricalMatchesExpectation) {
  Rng rng(3);
  const Graph g = make_gnp(40, 0.2, rng);
  const double expected = expected_random_cut(g);
  double total = 0.0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    total += static_cast<double>(Bisection::random(g, rng).cut());
  }
  EXPECT_NEAR(total / kTrials, expected, expected * 0.08);
}

TEST(Greedy, NearExactOnPath) {
  Rng rng(4);
  const Graph g = make_path(50);
  const Bisection b = greedy_bisection(g, rng);
  EXPECT_TRUE(b.is_balanced());
  // The grown region is one contiguous interval: cut 1 if the seed was
  // near an end, 2 if it grew from the middle.
  EXPECT_LE(b.cut(), 2);
}

TEST(Greedy, NearOptimalOnLadder) {
  Rng rng(5);
  const Graph g = make_ladder(40);
  const Bisection b = greedy_bisection(g, rng);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_LE(b.cut(), 4);  // optimum 2; BFS-ball growth costs at most 2 more
}

TEST(Greedy, HandlesDisconnectedGraphs) {
  Rng rng(6);
  GraphBuilder builder(20);
  for (Vertex v = 0; v < 9; ++v) builder.add_edge(v, v + 1);        // path A
  for (Vertex v = 10; v < 19; ++v) builder.add_edge(v, v + 1);      // path B
  const Graph g = builder.build();
  const Bisection b = greedy_bisection(g, rng);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_LE(b.cut(), 2);
}

TEST(Greedy, EdgelessAndTiny) {
  Rng rng(7);
  GraphBuilder builder(7);
  const Graph g = builder.build();
  const Bisection b = greedy_bisection(g, rng);
  EXPECT_LE(b.count_imbalance(), 1u);
  EXPECT_EQ(b.cut(), 0);

  GraphBuilder empty(0);
  const Graph g0 = empty.build();
  const Bisection b0 = greedy_bisection(g0, rng);
  EXPECT_EQ(b0.cut(), 0);
}

// The greedy bisector as first written: a lazy-deletion max-heap over
// frontier edges keyed by (attachment, -insertion_seq). The indexed
// heap must absorb vertices in exactly this order.
std::vector<std::uint8_t> lazy_heap_greedy_sides(const Graph& g, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint8_t> sides(n, 1);
  if (n == 0) return sides;
  std::vector<Weight> attachment(n, 0);
  std::vector<std::uint8_t> absorbed(n, 0);
  using Entry = std::tuple<Weight, std::int64_t, Vertex>;
  std::priority_queue<Entry> frontier;
  std::int64_t seq = 0;
  for (std::uint32_t grown = 0; grown < (n + 1) / 2; ++grown) {
    Vertex v = n;
    while (!frontier.empty()) {
      const auto [key, neg_seq, candidate] = frontier.top();
      frontier.pop();
      if (!absorbed[candidate] && attachment[candidate] == key) {
        v = candidate;
        break;
      }
    }
    if (v == n) {
      do {
        v = static_cast<Vertex>(rng.below(n));
      } while (absorbed[v]);
    }
    absorbed[v] = 1;
    sides[v] = 0;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!absorbed[nbrs[i]]) {
        attachment[nbrs[i]] += wts[i];
        frontier.emplace(attachment[nbrs[i]], -(++seq), nbrs[i]);
      }
    }
  }
  return sides;
}

TEST(Greedy, MatchesTheLazyHeapReference) {
  Rng gen(12);
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(gen.below(300));
    // Sparse rounds leave the graph disconnected (random reseeding);
    // weighted rounds make attachments differ beyond edge counts.
    const double degree = round % 3 == 0 ? 1.0 : 4.0;
    GraphBuilder builder(n);
    const Graph shape = make_gnp(n, gnp_p_for_degree(n, degree), gen);
    for (Vertex v = 0; v < n; ++v) {
      for (const Vertex u : shape.neighbors(v)) {
        if (u > v) {
          builder.add_edge(v, u,
                           round % 2 == 0 ? 1 : 1 + static_cast<Weight>(
                                                        gen.below(5)));
        }
      }
    }
    const Graph g = builder.build();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng a(seed);
      Rng b(seed);
      const Bisection indexed = greedy_bisection(g, a);
      EXPECT_EQ(std::vector<std::uint8_t>(indexed.sides().begin(),
                                          indexed.sides().end()),
                lazy_heap_greedy_sides(g, b))
          << "round " << round << " seed " << seed;
    }
  }
  for (const Graph& g : {make_ladder(40), make_grid(9, 7), make_path(31)}) {
    Rng a(3);
    Rng b(3);
    const Bisection indexed = greedy_bisection(g, a);
    EXPECT_EQ(std::vector<std::uint8_t>(indexed.sides().begin(),
                                        indexed.sides().end()),
              lazy_heap_greedy_sides(g, b));
  }
}

TEST(Spectral, ExactOnWellSeparatedPlanted) {
  Rng rng(8);
  const PlantedParams params{80, 0.5, 0.5, 3};
  const Graph g = make_planted(params, rng);
  const Bisection b = spectral_bisection(g, rng);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_EQ(b.cut(), 3);  // planted cut recovered
}

TEST(Spectral, GoodOnGrid) {
  Rng rng(9);
  const Graph g = make_grid(8, 8);
  const Bisection b = spectral_bisection(g, rng);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_LE(b.cut(), 12);  // optimum 8; spectral stays in range
}

TEST(Spectral, ExactOnPath) {
  Rng rng(10);
  const Graph g = make_path(64);
  const Bisection b = spectral_bisection(g, rng);
  EXPECT_EQ(b.cut(), 1);
}

TEST(Spectral, TinyGraphs) {
  Rng rng(11);
  const Graph g1 = make_path(1);
  EXPECT_EQ(spectral_bisection(g1, rng).cut(), 0);
  const Graph g2 = make_path(2);
  EXPECT_EQ(spectral_bisection(g2, rng).cut(), 1);
}

TEST(Spectral, WeightedGraphSeparatesHeavyBlocks) {
  // Two heavy cliques with a light bridge.
  GraphBuilder builder(8);
  for (Vertex u = 0; u < 4; ++u) {
    for (Vertex v = u + 1; v < 4; ++v) {
      builder.add_edge(u, v, 20);
      builder.add_edge(u + 4, v + 4, 20);
    }
  }
  builder.add_edge(3, 4);
  const Graph g = builder.build();
  Rng rng(12);
  const Bisection b = spectral_bisection(g, rng);
  EXPECT_EQ(b.cut(), 1);
}

}  // namespace
}  // namespace gbis
