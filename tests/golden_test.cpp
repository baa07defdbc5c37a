// End-to-end golden fixtures: the full metrics table for every Table I
// trace preset across all five schemes, diffed byte-for-byte against CSVs
// checked in under tests/fixtures/golden/.
//
// engine_golden_test pins the fast engine against the in-tree reference;
// these fixtures pin both against *history* — any change to simulation
// output (scheme logic, RNG consumption, workload generation, CSV
// formatting) shows up as a byte diff here even if the two engines still
// agree with each other. Every cell's result is bit-identical across
// thread counts and platforms, so an exact string compare is the right
// strength.
//
// To regenerate after an *intentional* output change:
//   DTN_UPDATE_GOLDEN=1 ./build/tests/golden_test
// then review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "experiment/experiment.h"
#include "golden_grid.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

std::string fixture_path(const std::string& preset_name) {
  return std::string(DTN_GOLDEN_FIXTURE_DIR) + "/" + preset_name + ".csv";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The golden scenario: a rate-preserving two-day slice of each preset, all
// five schemes, two repetitions. Mirrors engine_golden_test's config so
// the two suites exercise the same regime.
std::string golden_csv(const SyntheticTraceConfig& preset) {
  const ContactTrace trace = generate_trace(preset.with_duration(days(2)));

  ExperimentConfig config;
  config.avg_lifetime = hours(18);
  config.avg_data_size = megabits(40);
  config.ncl_count = 2;
  config.repetitions = 2;
  config.auto_horizon = false;
  config.sim.path_horizon = hours(4);
  config.sim.maintenance_interval = hours(12);
  config.seed = 77;
  return grid_csv(run_grid(trace, config, {config.ncl_count},
                           {config.avg_lifetime},
                           {SchemeKind::kNclCache, SchemeKind::kNoCache,
                            SchemeKind::kRandomCache, SchemeKind::kCacheData,
                            SchemeKind::kBundleCache}));
}

class GoldenFixture : public ::testing::TestWithParam<int> {};

TEST_P(GoldenFixture, MetricsCsvMatchesCheckedInFixture) {
  const SyntheticTraceConfig preset = all_presets()[GetParam()];
  const std::string csv = golden_csv(preset);
  ASSERT_FALSE(csv.empty());
  const std::string path = fixture_path(preset.name);

  if (std::getenv("DTN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << csv;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "fixture regenerated: " << path;
  }

  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << path
      << " — regenerate with DTN_UPDATE_GOLDEN=1 ./tests/golden_test";
  EXPECT_EQ(csv, golden) << "simulation output drifted from " << path
                         << "; if intentional, regenerate with "
                            "DTN_UPDATE_GOLDEN=1 and review the diff";
}

INSTANTIATE_TEST_SUITE_P(AllPresets, GoldenFixture, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           return all_presets()[tpi.param].name;
                         });

}  // namespace
}  // namespace dtn
