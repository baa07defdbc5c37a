// End-to-end integration tests: full simulations on synthetic traces,
// asserting the qualitative relationships the paper's evaluation reports.
// These use small traces so the whole suite stays fast, but exercise every
// module together: generation -> rate estimation -> NCL selection -> push /
// pull / response / replacement -> metrics.
#include <gtest/gtest.h>

#include <ostream>

#include "experiment/experiment.h"
#include "trace/synthetic.h"

namespace dtn {

// Found by argument-dependent lookup, so it lives in SchemeKind's namespace;
// without it gtest names the cases by the enum's raw bytes.
void PrintTo(SchemeKind kind, std::ostream* os) {
  *os << scheme_kind_name(kind);
}

namespace {

SyntheticTraceConfig itest_trace() {
  // A sparse DTN (paper regime): ~0.3 contacts per pair per day. Dense
  // traces let incidental caching catch up — the NCL advantage is a
  // sparse-network phenomenon (Sec. VI).
  SyntheticTraceConfig c;
  c.name = "itest";
  c.node_count = 30;
  c.duration = days(30);
  c.target_total_contacts = 4000;
  c.popularity_shape = 1.6;
  c.seed = 23;
  return c;
}

ExperimentConfig itest_config() {
  ExperimentConfig c;
  c.avg_lifetime = days(4);
  c.avg_data_size = megabits(100);
  c.ncl_count = 4;
  c.repetitions = 2;
  c.sim.maintenance_interval = hours(12);
  c.seed = 99;
  return c;
}

class IntegrationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new ContactTrace(generate_trace(itest_trace()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static const ContactTrace& trace() { return *trace_; }

 private:
  static const ContactTrace* trace_;
};

const ContactTrace* IntegrationTest::trace_ = nullptr;

TEST_F(IntegrationTest, NclCacheDeliversSubstantialFractionOfQueries) {
  const ExperimentResult r =
      run_experiment(trace(), SchemeKind::kNclCache, itest_config());
  EXPECT_GT(r.queries_issued.mean(), 20.0);
  EXPECT_GT(r.success_ratio.mean(), 0.25);
}

TEST_F(IntegrationTest, NclCacheBeatsNoCache) {
  const auto results = run_comparison(
      trace(), {SchemeKind::kNclCache, SchemeKind::kNoCache}, itest_config());
  EXPECT_GT(results[0].success_ratio.mean(), results[1].success_ratio.mean());
}

TEST_F(IntegrationTest, NclCacheBeatsRandomCache) {
  const auto results =
      run_comparison(trace(), {SchemeKind::kNclCache, SchemeKind::kRandomCache},
                     itest_config());
  EXPECT_GT(results[0].success_ratio.mean(), results[1].success_ratio.mean());
}

TEST_F(IntegrationTest, CachingSchemesProduceCopies) {
  const ExperimentResult ncl =
      run_experiment(trace(), SchemeKind::kNclCache, itest_config());
  EXPECT_GT(ncl.copies_per_item.mean(), 0.1);
  const ExperimentResult none =
      run_experiment(trace(), SchemeKind::kNoCache, itest_config());
  EXPECT_EQ(none.copies_per_item.mean(), 0.0);
}

TEST_F(IntegrationTest, DelaysWithinQueryConstraint) {
  const ExperimentConfig config = itest_config();
  const ExperimentResult r =
      run_experiment(trace(), SchemeKind::kNclCache, config);
  ASSERT_GT(r.delay_hours.count(), 0u);
  // Delays are bounded by the query time constraint T_L / 2.
  EXPECT_LE(r.delay_hours.mean() * 3600.0,
            config.avg_lifetime * config.query_constraint_factor + 1e-6);
  EXPECT_GE(r.delay_hours.mean(), 0.0);
}

TEST_F(IntegrationTest, LongerLifetimeImprovesSuccessRatio) {
  // Fig. 10(a): success ratio grows with T_L for the NCL scheme.
  ExperimentConfig short_config = itest_config();
  short_config.avg_lifetime = hours(6);
  ExperimentConfig long_config = itest_config();
  long_config.avg_lifetime = hours(36);
  const double short_ratio =
      run_experiment(trace(), SchemeKind::kNclCache, short_config)
          .success_ratio.mean();
  const double long_ratio =
      run_experiment(trace(), SchemeKind::kNclCache, long_config)
          .success_ratio.mean();
  EXPECT_GT(long_ratio, short_ratio);
}

TEST_F(IntegrationTest, LargerDataHurtsSuccessRatio) {
  // Fig. 11(a): larger items strain buffers and reduce performance.
  ExperimentConfig small = itest_config();
  small.avg_data_size = megabits(20);
  ExperimentConfig large = itest_config();
  large.avg_data_size = megabits(400);
  const double small_ratio =
      run_experiment(trace(), SchemeKind::kNclCache, small)
          .success_ratio.mean();
  const double large_ratio =
      run_experiment(trace(), SchemeKind::kNclCache, large)
          .success_ratio.mean();
  EXPECT_GE(small_ratio, large_ratio);
}

TEST_F(IntegrationTest, UtilityReplacementBeatsFifoUnderPressure) {
  // Fig. 12: with tight buffers the utility-based exchange outperforms
  // traditional insertion-time policies.
  ExperimentConfig utility = itest_config();
  utility.avg_data_size = megabits(200);
  utility.strategy = CacheStrategy::kUtilityExchange;
  ExperimentConfig fifo = utility;
  fifo.strategy = CacheStrategy::kFifo;
  const double u_ratio =
      run_experiment(trace(), SchemeKind::kNclCache, utility)
          .success_ratio.mean();
  const double f_ratio =
      run_experiment(trace(), SchemeKind::kNclCache, fifo)
          .success_ratio.mean();
  EXPECT_GE(u_ratio, f_ratio * 0.95);  // never materially worse
}

TEST_F(IntegrationTest, MoreNclsIncreaseCachingOverhead) {
  // Fig. 13(c): more NCLs -> more pushed copies (when buffers allow).
  ExperimentConfig one = itest_config();
  one.ncl_count = 1;
  ExperimentConfig many = itest_config();
  many.ncl_count = 6;
  const double copies_one =
      run_experiment(trace(), SchemeKind::kNclCache, one)
          .copies_per_item.mean();
  const double copies_many =
      run_experiment(trace(), SchemeKind::kNclCache, many)
          .copies_per_item.mean();
  EXPECT_GT(copies_many, copies_one);
}

TEST_F(IntegrationTest, ResponseModesAllFunctional) {
  for (ResponseMode mode : {ResponseMode::kAlways, ResponseMode::kSigmoid,
                            ResponseMode::kPathWeight}) {
    ExperimentConfig config = itest_config();
    config.response_mode = mode;
    config.repetitions = 1;
    const ExperimentResult r =
        run_experiment(trace(), SchemeKind::kNclCache, config);
    EXPECT_GT(r.success_ratio.mean(), 0.0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(IntegrationTest, AllStrategiesFunctional) {
  for (CacheStrategy strategy :
       {CacheStrategy::kUtilityExchange, CacheStrategy::kFifo,
        CacheStrategy::kLru, CacheStrategy::kGds}) {
    ExperimentConfig config = itest_config();
    config.strategy = strategy;
    config.repetitions = 1;
    const ExperimentResult r =
        run_experiment(trace(), SchemeKind::kNclCache, config);
    EXPECT_GT(r.success_ratio.mean(), 0.0)
        << "strategy " << static_cast<int>(strategy);
  }
}

// Every scheme must complete a full run without violating internal
// invariants on each preset-shaped (shortened) trace.
class AllSchemesSweep : public testing::TestWithParam<SchemeKind> {};

TEST_P(AllSchemesSweep, CompletesOnSyntheticTrace) {
  SyntheticTraceConfig tc = itest_trace();
  tc.node_count = 20;
  tc.target_total_contacts = 15000;
  const ContactTrace trace = generate_trace(tc);
  ExperimentConfig config = itest_config();
  config.repetitions = 1;
  const ExperimentResult r = run_experiment(trace, GetParam(), config);
  EXPECT_GE(r.success_ratio.mean(), 0.0);
  EXPECT_LE(r.success_ratio.mean(), 1.0);
  EXPECT_GE(r.copies_per_item.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemesSweep,
    testing::Values(SchemeKind::kNclCache, SchemeKind::kNoCache,
                    SchemeKind::kRandomCache, SchemeKind::kCacheData,
                    SchemeKind::kBundleCache),
    [](const testing::TestParamInfo<SchemeKind>& param_info) {
      std::string name = scheme_kind_name(param_info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

}  // namespace
}  // namespace dtn
