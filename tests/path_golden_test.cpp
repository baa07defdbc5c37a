// Golden equivalence suite for the zero-allocation path engine.
//
// The engine rewrite (parent-chain rate storage + hypoexp workspaces +
// scratch-buffer relaxation) claims *bit-identical* output: only where the
// doubles live changed, never their values, order, or the formulas that
// produce them. These tests pin that claim against the reference
// construction — compute_opportunistic_paths_reference, a line-for-line
// transcription of the legacy allocating construction — with EXPECT_EQ on
// raw doubles (no tolerances) at every layer: single-source tables,
// all-pairs tables, weight_at re-evaluations and the Eq. 3 NCL metric.
// Engine.EachTickHandsItsSchemesThatTicksTable checks every simulator
// tick's table against the same reference.
#include <gtest/gtest.h>

#include <vector>

#include "graph/all_pairs.h"
#include "graph/contact_graph.h"
#include "graph/ncl.h"
#include "graph/opportunistic_path.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

ContactTrace golden_trace(std::uint64_t seed) {
  SyntheticTraceConfig c;
  c.node_count = 24;
  c.duration = days(8);
  c.target_total_contacts = 5000;
  c.seed = seed;
  return generate_trace(c);
}

/// Every root's table by the reference construction.
std::vector<PathTable> reference_tables(const ContactGraph& graph,
                                        Time horizon) {
  std::vector<PathTable> tables;
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    tables.push_back(
        compute_opportunistic_paths_reference(graph, root, horizon, 8));
  }
  return tables;
}

void expect_tables_identical(const PathTable& fast, const PathTable& ref) {
  ASSERT_EQ(fast.node_count(), ref.node_count());
  EXPECT_EQ(fast.root(), ref.root());
  EXPECT_EQ(fast.horizon(), ref.horizon());
  for (NodeId node = 0; node < fast.node_count(); ++node) {
    EXPECT_EQ(fast.entry(node).weight, ref.entry(node).weight);
    EXPECT_EQ(fast.entry(node).last_rate, ref.entry(node).last_rate);
    EXPECT_EQ(fast.entry(node).next_hop, ref.entry(node).next_hop);
    EXPECT_EQ(fast.entry(node).hops, ref.entry(node).hops);
    EXPECT_EQ(fast.rates(node), ref.rates(node));
    EXPECT_EQ(fast.path_to_root(node), ref.path_to_root(node));
  }
}

TEST(PathGolden, SingleSourceTablesBitIdentical) {
  const ContactGraph graph = build_contact_graph(golden_trace(3));
  const Time horizon = hours(6);
  PathWorkspace ws;  // shared across roots: reuse must not leak state
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    const PathTable fast =
        compute_opportunistic_paths(graph, root, horizon, 8, ws);
    const PathTable ref =
        compute_opportunistic_paths_reference(graph, root, horizon, 8);
    expect_tables_identical(fast, ref);
  }
}

TEST(PathGolden, SingleSourceTablesBitIdenticalShortHorizon) {
  // A short horizon keeps weights away from saturation, exercising the
  // closed-form/uniformization dispatch boundary differently.
  const ContactGraph graph = build_contact_graph(golden_trace(11));
  const Time horizon = minutes(20);
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    expect_tables_identical(
        compute_opportunistic_paths(graph, root, horizon, 8),
        compute_opportunistic_paths_reference(graph, root, horizon, 8));
  }
}

TEST(PathGolden, AllPairsTableForTableBitIdentical) {
  const ContactGraph graph = build_contact_graph(golden_trace(5));
  const Time horizon = hours(6);
  const AllPairsPaths fast(graph, horizon, 8, /*threads=*/8);
  const std::vector<PathTable> ref = reference_tables(graph, horizon);
  ASSERT_EQ(static_cast<std::size_t>(fast.node_count()), ref.size());
  for (NodeId root = 0; root < fast.node_count(); ++root) {
    expect_tables_identical(fast.table(root),
                            ref[static_cast<std::size_t>(root)]);
  }
}

TEST(PathGolden, WeightAtBitIdentical) {
  const ContactGraph graph = build_contact_graph(golden_trace(5));
  const Time horizon = hours(6);
  const AllPairsPaths fast(graph, horizon, 8, 0);
  const std::vector<PathTable> ref = reference_tables(graph, horizon);
  for (const Time budget : {minutes(10), hours(1), hours(3), hours(6)}) {
    for (NodeId to = 0; to < fast.node_count(); ++to) {
      const PathTable& ref_table = ref[static_cast<std::size_t>(to)];
      for (NodeId from = 0; from < fast.node_count(); ++from) {
        EXPECT_EQ(fast.weight_at(from, to, budget),
                  ref_table.weight_at(from, budget))
            << from << "->" << to << " at " << budget;
      }
    }
  }
}

TEST(PathGolden, NclMetricsMatchReferenceFold) {
  // Eq. 3 from its definition: node i's metric is the mean over j != i of
  // the reference table's weight, summed in ascending j. ncl_metrics must
  // reproduce that fold bit for bit at any thread count.
  const struct {
    std::uint64_t seed;
    Time horizon;
  } cases[] = {{3, hours(6)}, {11, minutes(20)}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.seed);
    const ContactGraph graph = build_contact_graph(golden_trace(c.seed));
    const NodeId n = graph.node_count();
    std::vector<double> expected(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      const PathTable table =
          compute_opportunistic_paths_reference(graph, i, c.horizon, 8);
      double sum = 0.0;
      for (NodeId j = 0; j < n; ++j) {
        if (j != i) sum += table.weight(j);
      }
      expected[static_cast<std::size_t>(i)] =
          sum / static_cast<double>(n - 1);
    }
    for (const int threads : {1, 8}) {
      const std::vector<double> metrics =
          ncl_metrics(graph, c.horizon, 8, threads);
      ASSERT_EQ(metrics.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(metrics[i], expected[i]) << "node " << i << ", threads "
                                           << threads;
      }
    }
  }
}

}  // namespace
}  // namespace dtn
