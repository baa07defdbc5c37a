// Golden equivalence suite for the SoA simulator rewrite.
//
// The fast NCL scheme (SimEngine::kFast — structure-of-arrays node state,
// bundle queues compacted in place, reusable contact workspaces) claims
// *bit-identical* simulation output against SimEngine::kReference, the
// frozen per-object implementation in cache/ncl_scheme_reference.cpp. That
// claim only holds if the fast path consumes the RNG stream in exactly the
// legacy order, so these tests pin raw-double metric equality (EXPECT_EQ,
// no tolerances) across all four Table I trace presets and every scheme,
// plus byte-identity of a full sweep's CSV — the same contract
// tests/path_golden_test.cpp enforces for the path engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/sweep.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

// Table I presets shrunk to a bench-size slice (rate-preserving), so the
// full matrix stays in tier-1 time.
std::vector<SyntheticTraceConfig> golden_presets() {
  std::vector<SyntheticTraceConfig> presets = all_presets();
  for (auto& p : presets) p = p.with_duration(days(2));
  return presets;
}

ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.avg_lifetime = hours(18);
  config.avg_data_size = megabits(40);
  config.ncl_count = 2;
  config.repetitions = 2;
  config.auto_horizon = false;
  config.sim.path_horizon = hours(4);
  config.sim.maintenance_interval = hours(12);
  config.seed = 77;
  return config;
}

void expect_stats_identical(const RunningStats& fast, const RunningStats& ref) {
  ASSERT_EQ(fast.count(), ref.count());
  EXPECT_EQ(fast.mean(), ref.mean());
  EXPECT_EQ(fast.variance(), ref.variance());
  EXPECT_EQ(fast.min(), ref.min());
  EXPECT_EQ(fast.max(), ref.max());
}

void expect_results_identical(const ExperimentResult& fast,
                              const ExperimentResult& ref) {
  EXPECT_EQ(fast.scheme, ref.scheme);
  expect_stats_identical(fast.success_ratio, ref.success_ratio);
  expect_stats_identical(fast.delay_hours, ref.delay_hours);
  expect_stats_identical(fast.copies_per_item, ref.copies_per_item);
  expect_stats_identical(fast.replacement_overhead, ref.replacement_overhead);
  expect_stats_identical(fast.queries_issued, ref.queries_issued);
  expect_stats_identical(fast.queries_satisfied, ref.queries_satisfied);
  expect_stats_identical(fast.gigabytes_transferred, ref.gigabytes_transferred);
  expect_stats_identical(fast.duplicate_deliveries, ref.duplicate_deliveries);
}

TEST(EngineGolden, AllPresetsAllSchemesBitIdentical) {
  const std::vector<SchemeKind> kinds = {
      SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
      SchemeKind::kCacheData, SchemeKind::kBundleCache};
  for (const SyntheticTraceConfig& preset : golden_presets()) {
    const ContactTrace trace = generate_trace(preset);
    for (SchemeKind kind : kinds) {
      ExperimentConfig config = golden_config();

      config.sim.sim_engine = SimEngine::kFast;
      const ExperimentResult fast = run_experiment(trace, kind, config);

      config.sim.sim_engine = SimEngine::kReference;
      const ExperimentResult ref = run_experiment(trace, kind, config);

      SCOPED_TRACE(preset.name + " / " + scheme_kind_name(kind));
      expect_results_identical(fast, ref);
    }
  }
}

TEST(EngineGolden, ReplacementStrategiesBitIdentical) {
  // The FIFO/LRU/GDS strategies exercise insertion-time eviction
  // (evict_for) instead of the knapsack exchange; the response-mode
  // variants exercise the sigmoid and unconditional Bernoulli draws.
  const ContactTrace trace =
      generate_trace(infocom05_preset().with_duration(days(2)));
  for (CacheStrategy strategy :
       {CacheStrategy::kUtilityExchange, CacheStrategy::kFifo,
        CacheStrategy::kLru, CacheStrategy::kGds}) {
    for (ResponseMode mode :
         {ResponseMode::kPathWeight, ResponseMode::kSigmoid,
          ResponseMode::kAlways}) {
      ExperimentConfig config = golden_config();
      config.strategy = strategy;
      config.response_mode = mode;

      config.sim.sim_engine = SimEngine::kFast;
      const ExperimentResult fast =
          run_experiment(trace, SchemeKind::kNclCache, config);

      config.sim.sim_engine = SimEngine::kReference;
      const ExperimentResult ref =
          run_experiment(trace, SchemeKind::kNclCache, config);

      SCOPED_TRACE(static_cast<int>(strategy) * 10 + static_cast<int>(mode));
      expect_results_identical(fast, ref);
    }
  }
}

TEST(EngineGolden, DynamicNclBitIdentical) {
  // Dynamic NCL re-selection re-homes cached copies and push tokens; the
  // fast path additionally maintains its central-count and central-bitmap
  // SoA state through the re-homing.
  const ContactTrace trace =
      generate_trace(infocom06_preset().with_duration(days(2)));
  ExperimentConfig config = golden_config();
  config.dynamic_ncl = true;
  config.sim.maintenance_interval = hours(6);

  config.sim.sim_engine = SimEngine::kFast;
  const ExperimentResult fast =
      run_experiment(trace, SchemeKind::kNclCache, config);

  config.sim.sim_engine = SimEngine::kReference;
  const ExperimentResult ref =
      run_experiment(trace, SchemeKind::kNclCache, config);

  expect_results_identical(fast, ref);
}

TEST(EngineGolden, SweepCsvByteIdenticalAcrossEngines) {
  const ContactTrace trace =
      generate_trace(infocom05_preset().with_duration(days(2)));

  SweepConfig config;
  config.base = golden_config();
  config.schemes = {SchemeKind::kNclCache, SchemeKind::kNoCache};
  config.lifetimes = {hours(12), hours(18)};
  config.ncl_counts = {1, 2};

  config.base.sim.sim_engine = SimEngine::kFast;
  const std::string csv_fast = sweep_to_csv(run_sweep(trace, config));

  config.base.sim.sim_engine = SimEngine::kReference;
  const std::string csv_ref = sweep_to_csv(run_sweep(trace, config));

  EXPECT_EQ(csv_fast, csv_ref);
  EXPECT_FALSE(csv_fast.empty());
}

}  // namespace
}  // namespace dtn
