// Determinism regression suite for the parallel execution layer: every
// parallel path must produce output bit-identical to the serial path
// (threads = 1), for any thread count, on every run. These tests pit
// threads=1 against threads=8 (far more workers than this grid has cells
// per thread) so out-of-order completion is actually exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/sweep.h"
#include "graph/all_pairs.h"
#include "graph/contact_graph.h"
#include "graph/ncl.h"
#include "graph/opportunistic_path.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

ContactTrace small_trace() {
  SyntheticTraceConfig c;
  c.node_count = 16;
  c.duration = days(8);
  c.target_total_contacts = 3000;
  c.seed = 3;
  return generate_trace(c);
}

SweepConfig base_sweep() {
  SweepConfig s;
  s.base.avg_lifetime = days(1);
  s.base.avg_data_size = megabits(40);
  s.base.ncl_count = 2;
  s.base.repetitions = 2;
  s.base.auto_horizon = false;
  s.base.sim.path_horizon = hours(6);
  s.base.sim.maintenance_interval = hours(12);
  return s;
}

TEST(Determinism, SweepCsvIsByteIdenticalAcrossThreadCounts) {
  const ContactTrace trace = small_trace();

  SweepConfig serial = base_sweep();
  serial.schemes = {SchemeKind::kNclCache, SchemeKind::kNoCache};
  serial.lifetimes = {hours(12), days(1)};
  serial.ncl_counts = {1, 2};
  serial.threads = 1;

  SweepConfig threaded = serial;
  threaded.threads = 8;

  const std::string csv_serial = sweep_to_csv(run_sweep(trace, serial));
  const std::string csv_threaded = sweep_to_csv(run_sweep(trace, threaded));
  EXPECT_EQ(csv_serial, csv_threaded);
  // 2 schemes x 2 lifetimes x 2 K values + header.
  EXPECT_EQ(std::count(csv_serial.begin(), csv_serial.end(), '\n'), 9);
}

TEST(Determinism, SweepRowsMatchFieldByFieldAcrossThreadCounts) {
  const ContactTrace trace = small_trace();
  SweepConfig config = base_sweep();
  config.schemes = {SchemeKind::kNclCache};
  config.ncl_counts = {1, 2, 3};
  config.threads = 1;
  const auto serial = run_sweep(trace, config);
  config.threads = 8;
  const auto threaded = run_sweep(trace, config);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scheme, threaded[i].scheme);
    EXPECT_EQ(serial[i].ncl_count, threaded[i].ncl_count);
    EXPECT_EQ(serial[i].success_ratio, threaded[i].success_ratio);
    EXPECT_EQ(serial[i].delay_hours, threaded[i].delay_hours);
    EXPECT_EQ(serial[i].copies_per_item, threaded[i].copies_per_item);
    EXPECT_EQ(serial[i].replacement_overhead, threaded[i].replacement_overhead);
    EXPECT_EQ(serial[i].queries, threaded[i].queries);
  }
}

TEST(Determinism, AllPairsPathsMatchesSerialConstruction) {
  const ContactTrace trace = small_trace();
  const ContactGraph graph = build_contact_graph(trace);
  const Time horizon = hours(6);

  const AllPairsPaths threaded(graph, horizon, 8, /*threads=*/8);
  const AllPairsPaths one_thread(graph, horizon, 8, /*threads=*/1);

  // Reference: the plain serial per-root construction.
  std::vector<PathTable> reference;
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    reference.push_back(compute_opportunistic_paths(graph, root, horizon, 8));
  }

  for (NodeId from = 0; from < graph.node_count(); ++from) {
    for (NodeId to = 0; to < graph.node_count(); ++to) {
      const double expected =
          from == to ? 1.0
                     : reference[static_cast<std::size_t>(to)].weight(from);
      EXPECT_EQ(threaded.weight(from, to), expected);
      EXPECT_EQ(one_thread.weight(from, to), expected);
      EXPECT_EQ(threaded.weight_at(from, to, horizon / 2.0),
                one_thread.weight_at(from, to, horizon / 2.0));
    }
  }
  // Full table contents, not just weights.
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    const PathTable& a = threaded.table(root);
    const PathTable& b = reference[static_cast<std::size_t>(root)];
    for (NodeId node = 0; node < graph.node_count(); ++node) {
      EXPECT_EQ(a.entry(node).next_hop, b.entry(node).next_hop);
      EXPECT_EQ(a.entry(node).hops, b.entry(node).hops);
      EXPECT_EQ(a.entry(node).last_rate, b.entry(node).last_rate);
      EXPECT_EQ(a.rates(node), b.rates(node));
    }
  }
}

TEST(Determinism, NclMetricsAndSelectionMatchAcrossThreadCounts) {
  const ContactTrace trace = small_trace();
  const ContactGraph graph = build_contact_graph(trace);
  const Time horizon = hours(6);

  const std::vector<double> serial = ncl_metrics(graph, horizon, 8, 1);
  const std::vector<double> threaded = ncl_metrics(graph, horizon, 8, 8);
  EXPECT_EQ(serial, threaded);

  const NclSelection sel_serial = select_ncls(graph, horizon, 4, 8, 1);
  const NclSelection sel_threaded = select_ncls(graph, horizon, 4, 8, 8);
  EXPECT_EQ(sel_serial.central_nodes, sel_threaded.central_nodes);
  EXPECT_EQ(sel_serial.metric, sel_threaded.metric);

  EXPECT_EQ(calibrate_horizon(graph, 0.3, minutes(1), days(90), 8, 1),
            calibrate_horizon(graph, 0.3, minutes(1), days(90), 8, 8));
}

TEST(Determinism, ExperimentRepetitionsMatchAcrossThreadCounts) {
  const ContactTrace trace = small_trace();
  ExperimentConfig config;
  config.avg_lifetime = days(1);
  config.avg_data_size = megabits(40);
  config.ncl_count = 2;
  config.repetitions = 3;
  config.auto_horizon = false;
  config.sim.path_horizon = hours(6);
  config.sim.maintenance_interval = hours(12);

  config.sim.threads = 1;
  const ExperimentResult serial =
      run_experiment(trace, SchemeKind::kNclCache, config);
  config.sim.threads = 8;
  const ExperimentResult threaded =
      run_experiment(trace, SchemeKind::kNclCache, config);

  EXPECT_EQ(serial.success_ratio.mean(), threaded.success_ratio.mean());
  EXPECT_EQ(serial.success_ratio.stddev(), threaded.success_ratio.stddev());
  EXPECT_EQ(serial.delay_hours.mean(), threaded.delay_hours.mean());
  EXPECT_EQ(serial.copies_per_item.mean(), threaded.copies_per_item.mean());
  EXPECT_EQ(serial.replacement_overhead.mean(),
            threaded.replacement_overhead.mean());
  EXPECT_EQ(serial.queries_issued.mean(), threaded.queries_issued.mean());
  EXPECT_EQ(serial.queries_satisfied.mean(),
            threaded.queries_satisfied.mean());
  EXPECT_EQ(serial.gigabytes_transferred.mean(),
            threaded.gigabytes_transferred.mean());

  // All five schemes as (repetition x scheme) cells on the pool, sharing
  // each repetition's path tables.
  const std::vector<SchemeKind> kinds = {
      SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
      SchemeKind::kCacheData, SchemeKind::kBundleCache};
  config.sim.threads = 1;
  const std::vector<ExperimentResult> serial_all =
      run_comparison(trace, kinds, config);
  config.sim.threads = 8;
  const std::vector<ExperimentResult> threaded_all =
      run_comparison(trace, kinds, config);
  ASSERT_EQ(serial_all.size(), kinds.size());
  ASSERT_EQ(threaded_all.size(), kinds.size());
  // The NCL cell of the comparison is the run_experiment cell above.
  EXPECT_EQ(serial_all[0].success_ratio.mean(), serial.success_ratio.mean());
  EXPECT_EQ(serial_all[0].delay_hours.mean(), serial.delay_hours.mean());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const ExperimentResult& a = serial_all[k];
    const ExperimentResult& b = threaded_all[k];
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.success_ratio.mean(), b.success_ratio.mean());
    EXPECT_EQ(a.success_ratio.stddev(), b.success_ratio.stddev());
    EXPECT_EQ(a.delay_hours.mean(), b.delay_hours.mean());
    EXPECT_EQ(a.copies_per_item.mean(), b.copies_per_item.mean());
    EXPECT_EQ(a.replacement_overhead.mean(), b.replacement_overhead.mean());
    EXPECT_EQ(a.queries_issued.mean(), b.queries_issued.mean());
    EXPECT_EQ(a.queries_satisfied.mean(), b.queries_satisfied.mean());
    EXPECT_EQ(a.gigabytes_transferred.mean(), b.gigabytes_transferred.mean());
    EXPECT_EQ(a.duplicate_deliveries.mean(), b.duplicate_deliveries.mean());
  }
}

TEST(Determinism, ProgressIsMonotoneAndCompleteUnderThreads) {
  const ContactTrace trace = small_trace();
  SweepConfig config = base_sweep();
  config.schemes = {SchemeKind::kNoCache};
  config.lifetimes = {hours(12), days(1)};
  config.ncl_counts = {1, 2};
  config.threads = 8;

  std::vector<std::pair<std::size_t, std::size_t>> calls;
  run_sweep(trace, config, [&](std::size_t done, std::size_t total) {
    calls.emplace_back(done, total);
  });
  // One call per cell; `done` counts completed cells 1..total in order
  // even when cells complete out of order, and the last call says
  // done == total.
  ASSERT_EQ(calls.size(), 4u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i + 1);
    EXPECT_EQ(calls[i].second, 4u);
  }
  EXPECT_EQ(calls.back().first, calls.back().second);
}

}  // namespace
}  // namespace dtn
