// Tests for the observability registry (src/common/instrument.h):
// aggregation and delta arithmetic, name stability, per-thread slots that
// survive their thread, thread-safe accumulation from parallel_for workers,
// the counters' meaning under the lane engine, and the macro layer (guarded
// on instrument::enabled() so the suite passes in DTN_INSTRUMENT=OFF builds;
// tests/instrument_off_test.cpp covers the compiled-out macro mode).
#include "common/instrument.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "experiment/experiment.h"
#include "trace/synthetic.h"

namespace dtn::instrument {
namespace {

TEST(InstrumentTest, CounterNamesAreStableJsonIdentifiers) {
  // These strings are the bench JSON schema — see bench/bench_json.h and
  // tools/bench_compare.py. Renaming one breaks baseline comparisons.
  EXPECT_STREQ(counter_name(Counter::kHypoexpClosedFormEvals),
               "hypoexp_closed_form_evals");
  EXPECT_STREQ(counter_name(Counter::kDijkstraRelaxations),
               "dijkstra_relaxations");
  EXPECT_STREQ(counter_name(Counter::kKnapsackDpCells), "knapsack_dp_cells");
  EXPECT_STREQ(counter_name(Counter::kBufferEvictions), "buffer_evictions");
  EXPECT_STREQ(counter_name(Counter::kContactsProcessed),
               "contacts_processed");
  EXPECT_STREQ(timer_name(Timer::kSimulation), "simulation");
  EXPECT_STREQ(timer_name(Timer::kAllPairs), "all_pairs");
}

TEST(InstrumentTest, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    names.push_back(counter_name(static_cast<Counter>(i)));
  }
  for (int i = 0; i < static_cast<int>(Timer::kCount); ++i) {
    names.push_back(timer_name(static_cast<Timer>(i)));
  }
  for (const std::string& name : names) EXPECT_FALSE(name.empty());
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
}

TEST(InstrumentTest, AddIsVisibleInSnapshotDelta) {
  const StageStats before = snapshot();
  add(Counter::kExperimentRepetitions, 5);
  add(Counter::kExperimentRepetitions, 2);
  const StageStats delta = snapshot().delta_since(before);
  EXPECT_EQ(delta.counter("experiment_repetitions"), 7u);
  EXPECT_EQ(delta.counter("no_such_counter"), 0u);
}

TEST(InstrumentTest, SnapshotCoversEveryEnumeratorInOrder) {
  const StageStats stats = snapshot();
  ASSERT_EQ(stats.counters.size(), static_cast<std::size_t>(Counter::kCount));
  ASSERT_EQ(stats.timers.size(), static_cast<std::size_t>(Timer::kCount));
  for (std::size_t i = 0; i < stats.counters.size(); ++i) {
    EXPECT_EQ(stats.counters[i].name,
              counter_name(static_cast<Counter>(static_cast<int>(i))));
  }
}

TEST(InstrumentTest, AddTimeAccumulatesCallsAndNanos) {
  const StageStats before = snapshot();
  add_time(Timer::kKnapsack, 1000);
  add_time(Timer::kKnapsack, 500);
  const StageStats delta = snapshot().delta_since(before);
  const std::size_t idx = static_cast<std::size_t>(Timer::kKnapsack);
  EXPECT_EQ(delta.timers[idx].calls, 2u);
  EXPECT_EQ(delta.timers[idx].nanos, 1500u);
}

TEST(InstrumentTest, ScopedTimerChargesItsStage) {
  const StageStats before = snapshot();
  {
    ScopedTimer timer(Timer::kExperiment);
  }
  const StageStats delta = snapshot().delta_since(before);
  const std::size_t idx = static_cast<std::size_t>(Timer::kExperiment);
  EXPECT_EQ(delta.timers[idx].calls, 1u);
}

TEST(InstrumentTest, ConcurrentAddsFromPoolWorkersAreExact) {
  // The counters' whole job is totalling work done inside parallel_for
  // regions (per-root Dijkstra, scheme cells). Totals must be exact, not
  // approximate, whatever the interleaving.
  const StageStats before = snapshot();
  constexpr std::size_t kItems = 2000;
  parallel_for(4, kItems, [](std::size_t i) {
    add(Counter::kDijkstraRelaxations, 1);
    if (i % 2 == 0) add(Counter::kDijkstraSettled, 3);
  });
  const StageStats delta = snapshot().delta_since(before);
  EXPECT_EQ(delta.counter("dijkstra_relaxations"), kItems);
  EXPECT_EQ(delta.counter("dijkstra_settled"), 3u * (kItems / 2));
}

TEST(InstrumentTest, CountsOfExitedThreadsStayInSnapshot) {
  const StageStats before = snapshot();
  std::thread worker([] {
    add(Counter::kKnapsackSolves, 5);
    add_time(Timer::kKnapsack, 700);
  });
  worker.join();  // its slot folds into the exited totals
  add(Counter::kKnapsackSolves, 1);
  const StageStats delta = snapshot().delta_since(before);
  EXPECT_EQ(delta.counter("knapsack_solves"), 6u);
  const std::size_t idx = static_cast<std::size_t>(Timer::kKnapsack);
  EXPECT_EQ(delta.timers[idx].calls, 1u);
  EXPECT_EQ(delta.timers[idx].nanos, 700u);
}

TEST(InstrumentTest, ResetZeroesLiveAndExitedTotals) {
  std::thread([] { add(Counter::kExperimentRepetitions, 4); }).join();
  add(Counter::kExperimentRepetitions, 3);
  reset();
  EXPECT_EQ(snapshot().counter("experiment_repetitions"), 0u);
  // Counting resumes from zero on both kinds of slot.
  std::thread([] { add(Counter::kExperimentRepetitions, 2); }).join();
  add(Counter::kExperimentRepetitions, 1);
  EXPECT_EQ(snapshot().counter("experiment_repetitions"), 3u);
}

ContactTrace comparison_trace() {
  SyntheticTraceConfig c;
  c.node_count = 14;
  c.duration = days(4);
  c.target_total_contacts = 2500;
  c.seed = 17;
  return generate_trace(c);
}

ExperimentConfig comparison_config() {
  ExperimentConfig config;
  config.avg_lifetime = hours(12);
  config.avg_data_size = megabits(40);
  config.ncl_count = 2;
  config.repetitions = 2;
  config.auto_horizon = false;
  config.sim.path_horizon = hours(6);
  config.sim.maintenance_interval = hours(8);
  return config;
}

TEST(InstrumentTest, RunComparisonBuildsEachRepetitionsTablesOnce) {
  if (!enabled()) GTEST_SKIP() << "instrumentation compiled out";
  const ContactTrace trace = comparison_trace();
  const std::vector<SchemeKind> all = {
      SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
      SchemeKind::kCacheData, SchemeKind::kBundleCache};
  auto tables_built = [&](const std::vector<SchemeKind>& kinds, int threads) {
    ExperimentConfig config = comparison_config();
    config.sim.threads = threads;
    const StageStats before = snapshot();
    run_comparison(trace, kinds, config);
    return snapshot().delta_since(before).counter("path_tables_built");
  };
  const std::uint64_t one_kind = tables_built({SchemeKind::kNoCache}, 1);
  EXPECT_GT(one_kind, 0u);
  EXPECT_EQ(tables_built(all, 1), one_kind);
  EXPECT_EQ(tables_built({SchemeKind::kNoCache}, 4), one_kind);
  EXPECT_EQ(tables_built(all, 4), one_kind);
}

TEST(InstrumentTest, ContactsProcessedCountsEveryCell) {
  if (!enabled()) GTEST_SKIP() << "instrumentation compiled out";
  const ContactTrace trace = comparison_trace();
  const ExperimentConfig config = comparison_config();
  std::vector<Workload> workloads;
  std::vector<std::unique_ptr<Scheme>> schemes;
  std::vector<SimLane> lanes;
  workloads.reserve(2);
  for (std::uint64_t seed : {1u, 2u}) {
    WorkloadConfig wc;
    wc.start = trace.start_time() + trace.duration() / 2.0;
    wc.end = trace.end_time();
    wc.avg_lifetime = config.avg_lifetime;
    wc.seed = seed;
    workloads.push_back(generate_workload(wc, trace.node_count()));
    SimLane lane{&workloads.back(), {}, seed};
    for (SchemeKind kind : {SchemeKind::kNoCache, SchemeKind::kCacheData}) {
      schemes.push_back(make_scheme(
          kind, config, NclSelection{},
          draw_buffer_capacities(config, trace.node_count(), seed)));
      lane.schemes.push_back(schemes.back().get());
    }
    lanes.push_back(std::move(lane));
  }
  SimConfig sc = config.sim;
  sc.threads = 4;
  const StageStats before = snapshot();
  const std::vector<std::vector<RunResult>> runs =
      run_simulation(trace, lanes, sc);
  const StageStats delta = snapshot().delta_since(before);

  std::uint64_t contacts = 0;
  std::uint64_t ticks = 0;
  for (const auto& lane : runs) {
    for (const RunResult& run : lane) {
      contacts += run.contacts_processed;
      ticks += run.maintenance_ticks;
    }
  }
  EXPECT_GT(contacts, 0u);
  EXPECT_EQ(delta.counter("contacts_processed"), contacts);
  EXPECT_EQ(delta.counter("maintenance_ticks"), ticks);
}

TEST(InstrumentTest, MacrosBumpRegistryExactlyWhenEnabled) {
  const StageStats before = snapshot();
  DTN_COUNT(kMaintenanceTicks);
  DTN_COUNT_N(kBufferEvictions, 4);
  { DTN_SCOPED_TIMER(kMaintenance); }
  const StageStats delta = snapshot().delta_since(before);
  if (enabled()) {
    EXPECT_EQ(delta.counter("maintenance_ticks"), 1u);
    EXPECT_EQ(delta.counter("buffer_evictions"), 4u);
    EXPECT_EQ(delta.timers[static_cast<std::size_t>(Timer::kMaintenance)].calls,
              1u);
  } else {
    EXPECT_EQ(delta.counter("maintenance_ticks"), 0u);
    EXPECT_EQ(delta.counter("buffer_evictions"), 0u);
    EXPECT_EQ(delta.timers[static_cast<std::size_t>(Timer::kMaintenance)].calls,
              0u);
  }
}

TEST(InstrumentTest, ToStringListsOnlyNonZeroRows) {
  reset();
  add(Counter::kKnapsackSolves, 12);
  const std::string report = snapshot().to_string();
  EXPECT_NE(report.find("knapsack_solves"), std::string::npos);
  EXPECT_EQ(report.find("experiment_repetitions"), std::string::npos);
  reset();
  EXPECT_NE(snapshot().to_string().find("no instrumentation samples"),
            std::string::npos);
}

TEST(InstrumentTest, ResetZeroesEverything) {
  add(Counter::kExperimentRepetitions, 9);
  add_time(Timer::kExperiment, 100);
  reset();
  const StageStats stats = snapshot();
  for (const auto& row : stats.counters) EXPECT_EQ(row.value, 0u);
  for (const auto& row : stats.timers) {
    EXPECT_EQ(row.calls, 0u);
    EXPECT_EQ(row.nanos, 0u);
  }
}

}  // namespace
}  // namespace dtn::instrument
