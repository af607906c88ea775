// Tests for the method-portfolio subsystem (src/gbis/methods/): the
// registry that makes solvers data, the Berry-Goldberg path
// optimizer's refiner contract (balance preserved, cut never worsens,
// deterministic, deadline-interruptible), the fast greedy+hill-climb
// rung, the quality pin — path-opt mean cuts within 5% of KL's over
// the EXPERIMENTS.md graph classes — and the bucket pick's exactness
// (against a linear-scan reference) and linear per-pass work.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/baseline/greedy.hpp"
#include "gbis/gen/gnp.hpp"
#include "gbis/gen/planted.hpp"
#include "gbis/gen/regular_planted.hpp"
#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/kl/kl.hpp"
#include "gbis/methods/greedy.hpp"
#include "gbis/methods/path_opt.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/partition/bisection.hpp"
#include "gbis/partition/gains.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {
namespace {

// --- Registry --------------------------------------------------------------

TEST(Registry, RowsAlignWithTheMethodEnum) {
  const auto registry = method_registry();
  ASSERT_GE(registry.size(), 12u);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(registry[i].method), i)
        << registry[i].name;
    // method_info must be the same row the span exposes.
    EXPECT_EQ(&method_info(registry[i].method), &registry[i]);
  }
}

TEST(Registry, NamesRoundTripThroughEveryLookupPath) {
  for (const MethodInfo& info : method_registry()) {
    // Scripting name -> registry row.
    const MethodInfo* by_name = method_info_by_name(info.name);
    ASSERT_NE(by_name, nullptr) << info.name;
    EXPECT_EQ(by_name->method, info.method);
    // Scripting name -> harness Method (what the CLI/protocol use).
    Method parsed;
    ASSERT_TRUE(method_from_name(info.name, parsed)) << info.name;
    EXPECT_EQ(parsed, info.method);
    // Display name is what responses/tables print.
    EXPECT_EQ(method_name(info.method), info.display_name);
  }
  EXPECT_EQ(method_info_by_name("no-such-method"), nullptr);
}

TEST(Registry, PathOptAndGreedyHcAreFirstClass) {
  EXPECT_EQ(std::string(method_name(Method::kPathOpt)), "PO");
  EXPECT_EQ(std::string(method_name(Method::kGreedyHc)), "GreedyHC");
  Method m;
  ASSERT_TRUE(method_from_name("path", m));
  EXPECT_EQ(m, Method::kPathOpt);
  ASSERT_TRUE(method_from_name("greedy_hc", m));
  EXPECT_EQ(m, Method::kGreedyHc);
}

TEST(Registry, QualityTierNamesRoundTrip) {
  for (const QualityTier tier : {QualityTier::kFast, QualityTier::kBalanced,
                                 QualityTier::kBest}) {
    QualityTier parsed;
    ASSERT_TRUE(quality_tier_from_name(quality_tier_name(tier), parsed));
    EXPECT_EQ(parsed, tier);
  }
  QualityTier parsed;
  EXPECT_FALSE(quality_tier_from_name("fastest", parsed));
  EXPECT_FALSE(quality_tier_from_name("", parsed));
}

TEST(Registry, BestPortfolioPreservesTheHistoricalPrefix) {
  // Pre-ladder "auto" raced CKL, CSA, KL, SA, MLKL in that order; the
  // best rung must keep that prefix exactly (budget <= 5 streams
  // replay byte-identically) and append path optimization.
  const auto best = quality_portfolio(QualityTier::kBest);
  const std::vector<Method> expected = {Method::kCkl, Method::kCsa,
                                        Method::kKl,  Method::kSa,
                                        Method::kMultilevelKl,
                                        Method::kPathOpt};
  ASSERT_EQ(best.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(best[i], expected[i]) << i;
  }
}

TEST(Registry, EveryRungPortfolioIsRegisteredAndNonEmpty) {
  for (const QualityTier tier : {QualityTier::kFast, QualityTier::kBalanced,
                                 QualityTier::kBest}) {
    const auto portfolio = quality_portfolio(tier);
    ASSERT_FALSE(portfolio.empty());
    for (const Method m : portfolio) {
      EXPECT_LT(static_cast<std::size_t>(m), method_registry().size());
    }
  }
  // The fast rung is exactly the bounded-latency construction.
  const auto fast = quality_portfolio(QualityTier::kFast);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0], Method::kGreedyHc);
}

// --- Path optimization -----------------------------------------------------

TEST(PathOpt, NeverWorsensAndKeepsBalance) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp(80, 0.08, rng);
    Bisection b = Bisection::random(g, rng);
    const Weight before = b.cut();
    const PathOptStats stats = path_opt_refine(b);
    EXPECT_LE(b.cut(), before);
    EXPECT_TRUE(b.is_balanced());
    EXPECT_EQ(b.cut(), b.recompute_cut());
    EXPECT_EQ(stats.initial_cut, before);
    EXPECT_EQ(stats.final_cut, b.cut());
    EXPECT_GE(stats.passes, 1u);
  }
}

TEST(PathOpt, IsDeterministicForAFixedStart) {
  Rng rng(12);
  const Graph g = make_planted({200, 0.08, 0.02, 16}, rng);
  const Bisection start = Bisection::random(g, rng);
  Bisection a = start;
  Bisection b = start;
  path_opt_refine(a);
  path_opt_refine(b);
  EXPECT_EQ(a.cut(), b.cut());
  EXPECT_TRUE(std::equal(a.sides().begin(), a.sides().end(),
                         b.sides().begin()));
}

TEST(PathOpt, SinglePassReportsItsImprovement) {
  Rng rng(13);
  const Graph g = make_gnp(120, 0.06, rng);
  Bisection b = Bisection::random(g, rng);
  const Weight before = b.cut();
  PathOptStats stats;
  const Weight gain = path_opt_pass(b, &stats);
  EXPECT_EQ(gain, before - b.cut());
  EXPECT_GE(gain, 0);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_GE(stats.flips_proposed, stats.flips_applied);
}

TEST(PathOpt, MaxPassesCapsTheLoop) {
  Rng rng(14);
  const Graph g = make_gnp(150, 0.05, rng);
  Bisection b = Bisection::random(g, rng);
  PathOptOptions options;
  options.max_passes = 1;
  const PathOptStats stats = path_opt_refine(b, options);
  EXPECT_EQ(stats.passes, 1u);
}

TEST(PathOpt, ExpiredDeadlineThrowsDeadlineExceeded) {
  Rng rng(15);
  const Graph g = make_gnp(200, 0.05, rng);
  Bisection b = Bisection::random(g, rng);
  PathOptOptions options;
  options.deadline = Deadline::after(-1.0);
  EXPECT_THROW(path_opt_refine(b, options), DeadlineExceeded);
}

TEST(PathOpt, RunsThroughTheHarnessRunner) {
  Rng gen(16);
  const Graph g = make_regular_planted({200, 8, 4}, gen);
  Rng trial(99);
  const RunConfig config;
  const Bisection b = run_one_start(g, Method::kPathOpt, trial, config);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

struct NamedGraph {
  const char* name;
  Graph graph;
};

// The five EXPERIMENTS.md graph classes at about 300 vertices.
std::vector<NamedGraph> experiment_classes(Rng& gen) {
  std::vector<NamedGraph> classes;
  classes.push_back({"g2set", make_planted(
      planted_params_for_degree(300, 3.0, 16), gen)});
  classes.push_back({"gnp", make_gnp(300, gnp_p_for_degree(300, 3.0), gen)});
  classes.push_back({"gbreg", make_regular_planted({300, 16, 3}, gen)});
  classes.push_back({"grid", make_grid(18, 18)});
  classes.push_back({"ladder", make_ladder(150)});
  return classes;
}

// The ISSUE acceptance pin: over the EXPERIMENTS.md graph classes,
// path optimization's mean best cut stays within 5% of KL's from the
// same random starts. (Berry & Goldberg found path optimization
// *better* than KL on their geometric classes; parity is the
// conservative bound that keeps this test stable across seeds.)
TEST(PathOpt, MeanCutWithinFivePercentOfKlOnExperimentClasses) {
  Rng gen(19890625);
  const std::vector<NamedGraph> classes = experiment_classes(gen);

  constexpr int kStarts = 6;
  double kl_total = 0;
  double po_total = 0;
  for (const NamedGraph& c : classes) {
    double kl_sum = 0;
    double po_sum = 0;
    Rng starts(7);
    for (int s = 0; s < kStarts; ++s) {
      const Bisection start = Bisection::random(c.graph, starts);
      Bisection kl = start;
      kl_refine(kl);
      Bisection po = start;
      path_opt_refine(po);
      kl_sum += static_cast<double>(kl.cut());
      po_sum += static_cast<double>(po.cut());
    }
    kl_total += kl_sum;
    po_total += po_sum;
    // Per-class sanity: path-opt must at least be in KL's league on
    // every family, not carried by one easy class (2x is the loose
    // per-class guard; the 5% pin is on the aggregate mean).
    EXPECT_LE(po_sum, 2.0 * kl_sum + 1.0) << c.name;
  }
  EXPECT_LE(po_total, 1.05 * kl_total)
      << "path-opt mean cut " << po_total / (5 * kStarts)
      << " vs KL " << kl_total / (5 * kStarts);
}

// --- Path optimization: the bucket pick against its reference -----------

// The linear-scan pass the gain buckets replaced, kept as an oracle:
// every step scans all vertices for the unlocked max-gain vertex of
// the required side, ties to the freshest touch stamp (a flip stamps
// its neighbors in adjacency order), then to the lowest id. Bucket
// head insertion must reproduce that order exactly; service answers
// are byte-identical across the change only because it does.
Weight reference_path_opt_pass(Bisection& b, PathOptStats& stats) {
  const Graph& g = b.graph();
  const Weight cut_before = b.cut();
  std::vector<std::uint8_t> sides(b.sides().begin(), b.sides().end());
  std::vector<Weight> gains = all_gains(b);
  std::vector<std::uint8_t> locked(g.num_vertices(), 0);
  std::vector<std::uint64_t> stamp(g.num_vertices(), 0);
  std::uint64_t clock = 0;
  std::vector<Vertex> path;
  Weight cumulative = 0, best_cumulative = 0;
  std::size_t best_len = 0;
  for (;;) {
    const std::uint8_t required = path.size() & 1u;
    bool found = false;
    Vertex pick = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (locked[v] != 0 || sides[v] != required) continue;
      if (!found || gains[v] > gains[pick] ||
          (gains[v] == gains[pick] && stamp[v] > stamp[pick])) {
        found = true;
        pick = v;
      }
    }
    if (!found) break;
    path.push_back(pick);
    locked[pick] = 1;
    cumulative += gains[pick];
    for (const Vertex u : g.neighbors(pick)) stamp[u] = ++clock;
    update_gains_after_move(g, sides, pick, gains);
    sides[pick] ^= 1;
    if ((path.size() & 1u) == 0 &&
        (cumulative > best_cumulative ||
         (cumulative == best_cumulative && best_len > 0))) {
      best_cumulative = cumulative;
      best_len = path.size();
    }
  }
  for (std::size_t k = 0; k < best_len; ++k) b.move(path[k]);
  stats.paths += path.empty() ? 0 : 1;
  stats.flips_proposed += path.size();
  stats.flips_applied += best_len;
  return cut_before - b.cut();
}

// Weighted, with every edge added twice (once reversed) so the
// builder merges parallel edges into summed weights.
Graph weighted_multigraph(std::uint32_t n, Rng& rng) {
  GraphBuilder builder(n);
  for (std::uint32_t i = 0; i < 3 * n; ++i) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    builder.add_edge(u, v, 1 + static_cast<Weight>(rng.below(4)));
    builder.add_edge(v, u, 1 + static_cast<Weight>(rng.below(3)));
  }
  return builder.build();
}

// Gnp on the first 2/3 of the ids; the rest stay isolated (gain 0,
// never touched, so only the lowest-id rule orders them).
Graph with_isolated_vertices(std::uint32_t n, Rng& rng) {
  const std::uint32_t connected = 2 * n / 3;
  const Graph core = make_gnp(connected, gnp_p_for_degree(connected, 3.0),
                              rng);
  GraphBuilder builder(n);
  for (const Edge& e : core.edges()) builder.add_edge(e.u, e.v, e.weight);
  return builder.build();
}

TEST(PathOpt, BucketPassMatchesTheLinearScanReferencePassByPass) {
  Rng gen(20240517);
  std::vector<NamedGraph> graphs = experiment_classes(gen);
  graphs.push_back({"weighted", weighted_multigraph(201, gen)});
  graphs.push_back({"isolated", with_isolated_vertices(180, gen)});

  for (const NamedGraph& c : graphs) {
    Rng starts(31);
    for (int s = 0; s < 4; ++s) {
      const Bisection start = Bisection::random(c.graph, starts);
      Bisection fast = start;
      Bisection ref = start;
      PathOptStats fast_stats;
      PathOptStats ref_stats;
      std::uint32_t passes = 0;
      for (;;) {
        const Weight gain = path_opt_pass(fast, &fast_stats);
        const Weight ref_gain = reference_path_opt_pass(ref, ref_stats);
        ++passes;
        ASSERT_EQ(gain, ref_gain) << c.name << " start " << s;
        ASSERT_TRUE(std::equal(fast.sides().begin(), fast.sides().end(),
                               ref.sides().begin()))
            << c.name << " start " << s << " pass " << passes;
        ASSERT_EQ(fast_stats.paths, ref_stats.paths) << c.name;
        ASSERT_EQ(fast_stats.flips_proposed, ref_stats.flips_proposed)
            << c.name;
        ASSERT_EQ(fast_stats.flips_applied, ref_stats.flips_applied)
            << c.name;
        if (gain == 0) break;
      }
      // The refine driver is the same loop with totals.
      Bisection refined = start;
      const PathOptStats stats = path_opt_refine(refined);
      EXPECT_EQ(stats.passes, passes) << c.name;
      EXPECT_EQ(stats.flips_proposed, ref_stats.flips_proposed) << c.name;
      EXPECT_EQ(stats.flips_applied, ref_stats.flips_applied) << c.name;
      EXPECT_EQ(stats.initial_cut, start.cut()) << c.name;
      EXPECT_EQ(stats.final_cut, ref.cut()) << c.name;
    }
  }
}

// Timer-free complexity gate: the pick is a bucket-head read, so the
// counted pick work stays a small constant per proposed flip and each
// pass is linear in V + E, at n = 1k and 8k alike. (A full scan per
// flip would count about n / 2 per flip.)
TEST(PathOpt, PickWorkIsLinearPerPass) {
  for (const std::uint32_t n : {1000u, 8000u}) {
    Rng gen(n);
    const Graph g = make_gnp(n, gnp_p_for_degree(n, 5.0), gen);
    const double size = static_cast<double>(n) + g.num_edges();
    Bisection b = Bisection::random(g, gen);
    PathOptStats stats;
    for (int pass = 0; pass < 50; ++pass) {
      const PathOptStats before = stats;
      const Weight gain = path_opt_pass(b, &stats);
      const auto scanned = static_cast<double>(stats.candidates_scanned -
                                               before.candidates_scanned);
      const auto flips = static_cast<double>(stats.flips_proposed -
                                             before.flips_proposed);
      ASSERT_GT(flips, 0) << n;
      EXPECT_LE(scanned / flips, 4.0) << "n=" << n << " pass " << pass;
      EXPECT_LE(scanned, size) << "n=" << n << " pass " << pass;
      if (gain == 0) break;
    }
  }
}

// --- Greedy + hill climb (the fast rung) -----------------------------------

TEST(GreedyHc, BalancedValidAndNeverWorseThanPlainGreedy) {
  Rng gen(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_gnp(100, 0.06, gen);
    // Same Rng state for both: the greedy construction consumes the
    // same draws, so the hill climb starts from the identical cut.
    Rng a(1000 + trial);
    Rng b(1000 + trial);
    const Bisection plain = greedy_bisection(g, a);
    const Bisection polished = greedy_hc_bisection(g, b);
    EXPECT_TRUE(polished.is_balanced());
    EXPECT_EQ(polished.cut(), polished.recompute_cut());
    EXPECT_LE(polished.cut(), plain.cut());
  }
}

TEST(GreedyHc, IsDeterministicForAFixedSeed) {
  Rng gen(22);
  const Graph g = make_planted({150, 0.1, 0.02, 8}, gen);
  Rng a(5);
  Rng b(5);
  const Bisection x = greedy_hc_bisection(g, a);
  const Bisection y = greedy_hc_bisection(g, b);
  EXPECT_EQ(x.cut(), y.cut());
  EXPECT_TRUE(std::equal(x.sides().begin(), x.sides().end(),
                         y.sides().begin()));
}

TEST(GreedyHc, RunsThroughTheHarnessRunner) {
  Rng gen(23);
  const Graph g = make_gnp(120, 0.06, gen);
  Rng trial(7);
  const RunConfig config;
  const Bisection b = run_one_start(g, Method::kGreedyHc, trial, config);
  EXPECT_TRUE(b.is_balanced());
  EXPECT_EQ(b.cut(), b.recompute_cut());
}

}  // namespace
}  // namespace gbis
