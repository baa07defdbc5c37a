#include "graph/ncl.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.h"
#include "graph/all_pairs.h"
#include "graph/hypoexp.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

/// A star topology: node 0 is the hub.
ContactGraph star_graph(NodeId n, double rate) {
  ContactGraph g(n);
  for (NodeId i = 1; i < n; ++i) g.set_rate(0, i, rate);
  return g;
}

TEST(NclMetrics, HubHasHighestMetric) {
  const ContactGraph g = star_graph(6, 1.0);
  const std::vector<double> m = ncl_metrics(g, 1.0);
  for (NodeId i = 1; i < 6; ++i) {
    EXPECT_GT(m[0], m[static_cast<std::size_t>(i)]);
  }
}

TEST(NclMetrics, ValuesAreProbabilities) {
  const ContactGraph g = star_graph(6, 2.0);
  for (double v : ncl_metrics(g, 3.0)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(NclMetrics, SingleNodeGraphIsZero) {
  ContactGraph g(1);
  const auto m = ncl_metrics(g, 1.0);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 0.0);
}

TEST(NclMetrics, DisconnectedNodeHasZeroMetric) {
  ContactGraph g(4);
  g.set_rate(0, 1, 1.0);
  g.set_rate(1, 2, 1.0);
  const auto m = ncl_metrics(g, 1.0);
  EXPECT_EQ(m[3], 0.0);
  EXPECT_GT(m[1], 0.0);
}

TEST(NclMetrics, MetricGrowsWithHorizon) {
  const ContactGraph g = star_graph(5, 0.5);
  const auto short_t = ncl_metrics(g, 0.5);
  const auto long_t = ncl_metrics(g, 5.0);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GE(long_t[i], short_t[i]);
  }
}

TEST(SelectNcls, PicksHubFirst) {
  const ContactGraph g = star_graph(8, 1.5);
  const NclSelection sel = select_ncls(g, 1.0, 3);
  ASSERT_EQ(sel.central_nodes.size(), 3u);
  EXPECT_EQ(sel.central_nodes[0], 0);
  EXPECT_TRUE(sel.is_central(0));
  EXPECT_EQ(sel.central_index(0), 0);
}

TEST(SelectNcls, OrderedByMetricDescending) {
  ContactGraph g(5);
  g.set_rate(0, 1, 5.0);
  g.set_rate(0, 2, 5.0);
  g.set_rate(0, 3, 5.0);
  g.set_rate(1, 2, 1.0);
  const NclSelection sel = select_ncls(g, 1.0, 5);
  for (std::size_t i = 1; i < sel.central_nodes.size(); ++i) {
    const double prev =
        sel.metric[static_cast<std::size_t>(sel.central_nodes[i - 1])];
    const double curr =
        sel.metric[static_cast<std::size_t>(sel.central_nodes[i])];
    EXPECT_GE(prev, curr);
  }
}

TEST(SelectNcls, KLargerThanNIsClamped) {
  const ContactGraph g = star_graph(3, 1.0);
  const NclSelection sel = select_ncls(g, 1.0, 10);
  EXPECT_EQ(sel.central_nodes.size(), 3u);
}

TEST(SelectNcls, InvalidKThrows) {
  const ContactGraph g = star_graph(3, 1.0);
  EXPECT_THROW(select_ncls(g, 1.0, 0), std::invalid_argument);
}

TEST(SelectNcls, TiesBreakTowardsLowerIds) {
  // Symmetric square: all nodes equivalent.
  ContactGraph g(4);
  g.set_rate(0, 1, 1.0);
  g.set_rate(1, 2, 1.0);
  g.set_rate(2, 3, 1.0);
  g.set_rate(3, 0, 1.0);
  const NclSelection sel = select_ncls(g, 1.0, 2);
  EXPECT_EQ(sel.central_nodes[0], 0);
  EXPECT_EQ(sel.central_nodes[1], 1);
}

TEST(TopByMetric, TiesBreakTowardsLowerId) {
  const std::vector<double> metric = {0.5, 0.7, 0.5, 0.7, 0.1};
  EXPECT_EQ(top_by_metric(metric, 3), (std::vector<NodeId>{1, 3, 0}));
  EXPECT_EQ(top_by_metric(metric, 9), (std::vector<NodeId>{1, 3, 0, 2, 4}));
  EXPECT_TRUE(top_by_metric(metric, 0).empty());
}

TEST(SelectNcls, NonCentralQueries) {
  const ContactGraph g = star_graph(5, 1.0);
  const NclSelection sel = select_ncls(g, 1.0, 1);
  EXPECT_FALSE(sel.is_central(4));
  EXPECT_EQ(sel.central_index(4), -1);
}

// Fig. 4 validation on synthetic traces: the NCL metric distribution must be
// highly skewed — a few nodes dominate.
TEST(NclValidation, SyntheticTraceMetricsAreSkewed) {
  const auto config = mit_reality_preset().with_duration(days(20));
  const ContactTrace trace = generate_trace(config);
  const ContactGraph graph = build_contact_graph(trace, -1.0, 2);
  // The paper picks T so metric values differentiate (Sec. IV-B): too large
  // a horizon saturates every C_i towards 1. One day separates well here.
  const std::vector<double> metrics = ncl_metrics(graph, days(1), 8);

  std::vector<double> sorted = metrics;
  std::sort(sorted.begin(), sorted.end());
  const double top = sorted.back();
  const double median = sorted[sorted.size() / 2];
  EXPECT_GT(top, 0.0);
  // Heterogeneity: the best node clearly dominates the median node.
  EXPECT_GT(top, 1.5 * median);
}

TEST(AllPairs, WeightsMatchSingleSource) {
  const ContactGraph g = star_graph(5, 1.0);
  const AllPairsPaths ap(g, 2.0);
  const PathTable t = compute_opportunistic_paths(g, 3, 2.0);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(ap.weight(i, 3), t.weight(i));
  }
}

TEST(AllPairs, SelfWeightIsOne) {
  const ContactGraph g = star_graph(4, 1.0);
  const AllPairsPaths ap(g, 1.0);
  for (NodeId i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(ap.weight(i, i), 1.0);
}

TEST(AllPairs, WeightAtRescalesTimeBudget) {
  const ContactGraph g = star_graph(3, 0.5);
  const AllPairsPaths ap(g, 2.0);
  // Node 1 -> node 2 goes through the hub: rates {0.5, 0.5}.
  const double at_two = ap.weight_at(1, 2, 2.0);
  EXPECT_NEAR(at_two, ap.weight(1, 2), 1e-12);
  const double at_ten = ap.weight_at(1, 2, 10.0);
  EXPECT_GT(at_ten, at_two);
  EXPECT_EQ(ap.weight_at(1, 2, 0.0), 0.0);
}

TEST(AllPairs, UnreachablePairIsZeroAtAnyBudget) {
  ContactGraph g(3);
  g.set_rate(0, 1, 1.0);
  const AllPairsPaths ap(g, 1.0);
  EXPECT_EQ(ap.weight(0, 2), 0.0);
  EXPECT_EQ(ap.weight_at(0, 2, 100.0), 0.0);
}

TEST(PathTable, WeightAtReevaluatesTheSettledChain) {
  // 0 - 1 - 2 in a line; node 3 is isolated, so no root reaches it.
  ContactGraph g(4);
  g.set_rate(0, 1, 0.5);
  g.set_rate(1, 2, 2.0);
  const AllPairsPaths ap(g, 2.0);
  const Time budget = 5.0;
  for (NodeId to = 0; to < 4; ++to) {
    const PathTable& t = ap.table(to);
    for (NodeId from = 0; from < 4; ++from) {
      const double chain =
          from == to ? 1.0
                     : (t.reachable(from) ? hypoexp_cdf(t.rates(from), budget)
                                          : 0.0);
      EXPECT_EQ(t.weight_at(from, budget), chain) << from << "->" << to;
      EXPECT_EQ(ap.weight_at(from, to, budget), chain) << from << "->" << to;
    }
  }
  EXPECT_EQ(ap.table(0).weight_at(3, 1e9), 0.0);
  EXPECT_GT(ap.table(0).weight_at(2, budget), ap.table(0).weight(2));
}

TEST(AllPairs, EmptyDefault) {
  AllPairsPaths ap;
  EXPECT_TRUE(ap.empty());
  EXPECT_EQ(ap.node_count(), 0);
}

}  // namespace
}  // namespace dtn
