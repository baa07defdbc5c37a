#include "graph/opportunistic_path.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/hypoexp.h"

namespace dtn {
namespace {

ContactGraph line_graph(int n, double rate) {
  ContactGraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.set_rate(i, i + 1, rate);
  return g;
}

TEST(OpportunisticPath, RootHasWeightOne) {
  const ContactGraph g = line_graph(3, 1.0);
  const PathTable t = compute_opportunistic_paths(g, 0, 1.0);
  EXPECT_DOUBLE_EQ(t.weight(0), 1.0);
  EXPECT_EQ(t.entry(0).hops, 0);
  EXPECT_EQ(t.root(), 0);
}

TEST(OpportunisticPath, DirectNeighborIsExponentialCdf) {
  const ContactGraph g = line_graph(2, 0.5);
  const PathTable t = compute_opportunistic_paths(g, 0, 2.0);
  EXPECT_NEAR(t.weight(1), 1.0 - std::exp(-0.5 * 2.0), 1e-12);
  EXPECT_EQ(t.entry(1).hops, 1);
  EXPECT_EQ(t.entry(1).next_hop, 0);
}

TEST(OpportunisticPath, TwoHopWeightIsHypoexp) {
  const ContactGraph g = line_graph(3, 1.0);
  const PathTable t = compute_opportunistic_paths(g, 0, 3.0);
  EXPECT_NEAR(t.weight(2), hypoexp_cdf({1.0, 1.0}, 3.0), 1e-12);
  EXPECT_EQ(t.entry(2).hops, 2);
}

TEST(OpportunisticPath, UnreachableNodeHasZeroWeight) {
  ContactGraph g(4);
  g.set_rate(0, 1, 1.0);
  // Nodes 2 and 3 are isolated from 0.
  g.set_rate(2, 3, 1.0);
  const PathTable t = compute_opportunistic_paths(g, 0, 1.0);
  EXPECT_EQ(t.weight(2), 0.0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(t.path_to_root(2).empty());
}

TEST(OpportunisticPath, PrefersStrongIndirectOverWeakDirect) {
  ContactGraph g(3);
  g.set_rate(0, 2, 0.001);  // weak direct link
  g.set_rate(0, 1, 10.0);   // strong two-hop route
  g.set_rate(1, 2, 10.0);
  const PathTable t = compute_opportunistic_paths(g, 0, 1.0);
  EXPECT_EQ(t.entry(2).hops, 2);
  EXPECT_EQ(t.entry(2).next_hop, 1);
  EXPECT_GT(t.weight(2), hypoexp_cdf({0.001}, 1.0));
}

TEST(OpportunisticPath, PrefersDirectOverWeakIndirect) {
  ContactGraph g(3);
  g.set_rate(0, 2, 5.0);
  g.set_rate(0, 1, 0.01);
  g.set_rate(1, 2, 0.01);
  const PathTable t = compute_opportunistic_paths(g, 0, 1.0);
  EXPECT_EQ(t.entry(2).hops, 1);
}

TEST(OpportunisticPath, PathReconstructionFollowsNextHops) {
  const ContactGraph g = line_graph(5, 2.0);
  const PathTable t = compute_opportunistic_paths(g, 0, 10.0);
  const std::vector<NodeId> path = t.path_to_root(4);
  const std::vector<NodeId> expected{4, 3, 2, 1, 0};
  EXPECT_EQ(path, expected);
}

TEST(OpportunisticPath, MaxHopsLimitsReach) {
  const ContactGraph g = line_graph(6, 5.0);
  const PathTable t = compute_opportunistic_paths(g, 0, 100.0, /*max_hops=*/2);
  EXPECT_GT(t.weight(2), 0.0);
  EXPECT_EQ(t.weight(3), 0.0);
}

TEST(OpportunisticPath, RatesVectorMatchesPath) {
  ContactGraph g(3);
  g.set_rate(0, 1, 0.7);
  g.set_rate(1, 2, 1.3);
  const PathTable t = compute_opportunistic_paths(g, 0, 2.0);
  const std::vector<double> rates = t.rates(2);
  ASSERT_EQ(rates.size(), 2u);
  // Rates accumulate from the root outward.
  EXPECT_DOUBLE_EQ(rates[0], 0.7);
  EXPECT_DOUBLE_EQ(rates[1], 1.3);
  // The entry itself stores only the final stage; the chain above comes
  // from the parent-chain walk.
  EXPECT_DOUBLE_EQ(t.entry(2).last_rate, 1.3);
}

TEST(OpportunisticPath, InvalidArguments) {
  const ContactGraph g = line_graph(3, 1.0);
  EXPECT_THROW(compute_opportunistic_paths(g, -1, 1.0), std::invalid_argument);
  EXPECT_THROW(compute_opportunistic_paths(g, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(compute_opportunistic_paths(g, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(compute_opportunistic_paths(g, 0, 1.0, 0), std::invalid_argument);
}

TEST(OpportunisticPath, ApproximateSymmetryOnUndirectedGraph) {
  // The path weight is not edge-decomposable, so label-setting is a greedy
  // construction: the tree rooted at A and the tree rooted at B may pick
  // slightly different paths for the same pair. Directional weights must
  // nevertheless agree closely on an undirected graph.
  Rng rng(21);
  ContactGraph g(8);
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = i + 1; j < 8; ++j) {
      if (rng.bernoulli(0.5)) g.set_rate(i, j, rng.uniform(0.1, 3.0));
    }
  }
  for (NodeId root = 0; root < 8; ++root) {
    const PathTable t = compute_opportunistic_paths(g, root, 1.5);
    for (NodeId other = 0; other < 8; ++other) {
      const PathTable back = compute_opportunistic_paths(g, other, 1.5);
      EXPECT_NEAR(t.weight(other), back.weight(root), 0.05)
          << root << "<->" << other;
    }
  }
}

/// EXPECT_EQs every entry field of `got` against `want`'s.
void expect_same_entries(const PathTable& got, const PathTable& want) {
  for (NodeId v = 0; v < want.node_count(); ++v) {
    const PathTable::Entry& g = got.entry(v);
    const PathTable::Entry& w = want.entry(v);
    EXPECT_EQ(g.weight, w.weight) << v;
    EXPECT_EQ(g.last_rate, w.last_rate) << v;
    EXPECT_EQ(g.next_hop, w.next_hop) << v;
    EXPECT_EQ(g.hops, w.hops) << v;
  }
}

/// Root 0 reaches node 3 directly at rate 1 and node 2 through node 1,
/// over an edge (1, 2) of rate 1. Speeding that edge up to 10 re-settles
/// node 2, whose offer then beats node 3's direct link, so 3 and the
/// `below` nodes hanging off it re-settle too, although no changed edge
/// is above them. The horizon is 1.
struct GrowCase {
  ContactGraph old_graph;
  ContactGraph graph;
  std::vector<std::pair<NodeId, NodeId>> changed{{1, 2}};
};

GrowCase grow_case(int below) {
  GrowCase c{ContactGraph(4 + below), ContactGraph(4 + below)};
  c.old_graph.set_rate(0, 1, 5.0);
  c.old_graph.set_rate(1, 2, 1.0);
  c.old_graph.set_rate(0, 3, 1.0);
  c.old_graph.set_rate(2, 3, 3.0);
  for (NodeId v = 4; v < 4 + below; ++v) c.old_graph.set_rate(3, v, 2.0);
  c.graph = c.old_graph;
  c.graph.set_rate(1, 2, 10.0);
  return c;
}

TEST(ResettleSubtrees, GrowsOverAKeptNodeItsOfferReaches) {
  const Time horizon = 1.0;
  const GrowCase c = grow_case(1);
  const PathTable old = compute_opportunistic_paths(c.old_graph, 0, horizon);
  ASSERT_EQ(old.entry(3).next_hop, 0);
  ASSERT_EQ(old.entry(4).next_hop, 3);
  ASSERT_EQ(old.tree_child(1, 2), 2);
  const std::optional<ResettledTable> got =
      resettle_subtrees(c.graph, old, 8, c.changed, thread_path_workspace(),
                        build_edge_exp_table(c.graph, horizon));
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->table.has_value());
  EXPECT_EQ(got->resettled, 3u);  // 2, then 3 and 4
  EXPECT_EQ(got->grown, 2u);
  const PathTable want =
      compute_opportunistic_paths_reference(c.graph, 0, horizon);
  EXPECT_EQ(want.entry(3).next_hop, 2);  // the growth changed 3's parent
  expect_same_entries(*got->table, want);
}

TEST(ResettleSubtrees, DeclinesAGrowthPastTheShareCap) {
  // The same growth with six nodes below node 3 would re-settle 8 of 10.
  const Time horizon = 1.0;
  const GrowCase c = grow_case(6);
  ASSERT_GT(8.0, kMaxResettledShare * 10.0);
  const PathTable old = compute_opportunistic_paths(c.old_graph, 0, horizon);
  EXPECT_FALSE(resettle_subtrees(c.graph, old, 8, c.changed,
                                 thread_path_workspace(),
                                 build_edge_exp_table(c.graph, horizon))
                   .has_value());
}

/// Root 0 reaches node 1 directly at rate 5, node 2 directly at rate 1
/// and node 3 through node 2. The edge (1, 2), of rate 0.1, is in no tree
/// path, and the horizon is 1.
ContactGraph kept_pair_graph() {
  ContactGraph g(4);
  g.set_rate(0, 1, 5.0);
  g.set_rate(0, 2, 1.0);
  g.set_rate(1, 2, 0.1);
  g.set_rate(2, 3, 2.0);
  return g;
}

TEST(ResettleSubtrees, FasterEdgeBetweenKeptNodesResettlesTheFarSubtree) {
  // Sped up to 10, the edge (1, 2) carries node 1's offer past node 2's
  // direct link, although no tree edge changed: node 2 and node 3 below
  // it re-settle, and node 1 keeps its entry.
  const Time horizon = 1.0;
  const ContactGraph old_graph = kept_pair_graph();
  ContactGraph graph = old_graph;
  graph.set_rate(1, 2, 10.0);
  const PathTable old = compute_opportunistic_paths(old_graph, 0, horizon);
  ASSERT_EQ(old.entry(2).next_hop, 0);
  ASSERT_EQ(old.tree_child(1, 2), kNoNode);
  const std::optional<ResettledTable> got =
      resettle_subtrees(graph, old, 8, {{1, 2}}, thread_path_workspace(),
                        build_edge_exp_table(graph, horizon));
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->table.has_value());
  EXPECT_EQ(got->resettled, 2u);
  EXPECT_EQ(got->grown, 0u);
  const PathTable want =
      compute_opportunistic_paths_reference(graph, 0, horizon);
  EXPECT_EQ(want.entry(2).next_hop, 1);
  EXPECT_EQ(want.entry(3).next_hop, 2);
  expect_same_entries(*got->table, want);
}

TEST(ResettleSubtrees, ChangedEdgeWhoseOffersFallShortLeavesTheRoot) {
  // Sped up only to 0.2, the edge (1, 2) offers neither end its weight, so
  // no change reaches root 0: no table, and nothing re-settled.
  const Time horizon = 1.0;
  const ContactGraph old_graph = kept_pair_graph();
  ContactGraph graph = old_graph;
  graph.set_rate(1, 2, 0.2);
  const PathTable old = compute_opportunistic_paths(old_graph, 0, horizon);
  const std::optional<ResettledTable> got =
      resettle_subtrees(graph, old, 8, {{1, 2}}, thread_path_workspace(),
                        build_edge_exp_table(graph, horizon));
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->table.has_value());
  EXPECT_EQ(got->resettled, 0u);
  expect_same_entries(old,
                      compute_opportunistic_paths_reference(graph, 0, horizon));
}

// Property: the greedy label-setting construction matches brute-force
// enumeration on random small graphs.
class DijkstraVsBruteForce : public testing::TestWithParam<int> {};

TEST_P(DijkstraVsBruteForce, MatchesExhaustiveSearch) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const NodeId n = 6;
  ContactGraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.6)) g.set_rate(i, j, rng.uniform(0.05, 4.0));
    }
  }
  const double horizon = 2.0;
  const PathTable t = compute_opportunistic_paths(g, 0, horizon, 5);
  for (NodeId dest = 1; dest < n; ++dest) {
    const double exact = brute_force_best_weight(g, dest, 0, horizon, 5);
    // Label-setting is the standard greedy construction in this literature;
    // it should match the exact optimum on these sizes (and must never
    // exceed it).
    EXPECT_LE(t.weight(dest), exact + 1e-9);
    EXPECT_NEAR(t.weight(dest), exact, 0.02) << "dest=" << dest;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraVsBruteForce,
                         testing::Range(0, 20));

}  // namespace
}  // namespace dtn
