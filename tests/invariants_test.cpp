// Property tests: full simulations across random seeds and parameter
// corners must leave every scheme's internal state structurally consistent
// (buffer accounting exact, capacities respected).
#include <gtest/gtest.h>

#include <ostream>

#include "baselines/bundle_cache.h"
#include "baselines/cache_data.h"
#include "baselines/no_cache.h"
#include "baselines/random_cache.h"
#include "cache/ncl_scheme.h"
#include "experiment/experiment.h"
#include "graph/ncl.h"
#include "sim/engine.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

struct Scenario {
  std::uint64_t seed;
  double size_mb;
  double miss_prob;
  CacheStrategy strategy;
};

// Prints the fields as the Scenario{...} initializers below list them.
// Without it gtest prints the raw bytes, padding included, into the ctest
// names, which then differ between builds of the same code.
void PrintTo(const Scenario& s, std::ostream* os) {
  *os << '{' << s.seed << ", " << s.size_mb << ", " << s.miss_prob << ", "
      << static_cast<int>(s.strategy) << '}';
}

class InvariantSweep : public testing::TestWithParam<Scenario> {};

TEST_P(InvariantSweep, NclSchemeStateConsistentAfterRun) {
  const Scenario scenario = GetParam();

  SyntheticTraceConfig tc;
  tc.node_count = 24;
  tc.duration = days(14);
  tc.target_total_contacts = 6000;
  tc.popularity_shape = 1.6;
  tc.seed = scenario.seed;
  const ContactTrace trace = generate_trace(tc);

  ExperimentConfig config;
  config.avg_lifetime = days(2);
  config.avg_data_size = megabits(scenario.size_mb);
  config.ncl_count = 3;
  config.sim.maintenance_interval = hours(12);
  config.sim.contact_miss_prob = scenario.miss_prob;

  const ContactGraph graph = warmup_graph(trace, config);
  const Time horizon = effective_horizon(graph, config);
  const NclSelection ncls =
      select_ncls(graph, horizon, config.ncl_count, config.sim.max_hops);

  WorkloadConfig wc;
  wc.start = trace.start_time() + trace.duration() / 2.0;
  wc.end = trace.end_time();
  wc.avg_lifetime = config.avg_lifetime;
  wc.avg_size = config.avg_data_size;
  wc.seed = scenario.seed ^ 0xABCD;
  const Workload workload = generate_workload(wc, trace.node_count());

  NclSchemeConfig sc;
  sc.central_nodes = ncls.central_nodes;
  sc.buffer_capacity =
      draw_buffer_capacities(config, trace.node_count(), scenario.seed);
  sc.strategy = scenario.strategy;
  sc.dynamic_ncl = scenario.seed % 2 == 0;  // exercise both paths
  NclCachingScheme scheme(std::move(sc));

  SimConfig sim = config.sim;
  sim.path_horizon = horizon;
  sim.seed = scenario.seed;
  const RunResult result = run_simulation(trace, workload, scheme, sim);

  EXPECT_TRUE(scheme.check_invariants(workload.registry()));
  EXPECT_LE(result.metrics.success_ratio(), 1.0);
  EXPECT_GE(result.metrics.success_ratio(), 0.0);
}

TEST_P(InvariantSweep, BaselinesStateConsistentAfterRun) {
  const Scenario scenario = GetParam();

  SyntheticTraceConfig tc;
  tc.node_count = 20;
  tc.duration = days(10);
  tc.target_total_contacts = 4000;
  tc.seed = scenario.seed + 100;
  const ContactTrace trace = generate_trace(tc);

  WorkloadConfig wc;
  wc.start = trace.start_time() + trace.duration() / 2.0;
  wc.end = trace.end_time();
  wc.avg_lifetime = days(1);
  wc.avg_size = megabits(scenario.size_mb);
  wc.seed = scenario.seed;
  const Workload workload = generate_workload(wc, trace.node_count());

  ExperimentConfig config;
  std::vector<Bytes> buffers =
      draw_buffer_capacities(config, trace.node_count(), scenario.seed);

  SimConfig sim;
  sim.path_horizon = hours(8);
  sim.maintenance_interval = hours(12);
  sim.contact_miss_prob = scenario.miss_prob;
  sim.seed = scenario.seed;

  FloodingConfig fc;
  fc.buffer_capacity = buffers;

  RandomCacheScheme random_cache(fc);
  run_simulation(trace, workload, random_cache, sim);
  EXPECT_TRUE(random_cache.check_invariants(workload.registry()));

  CacheDataScheme cache_data(fc);
  run_simulation(trace, workload, cache_data, sim);
  EXPECT_TRUE(cache_data.check_invariants(workload.registry()));

  BundleCacheScheme bundle(fc);
  run_simulation(trace, workload, bundle, sim);
  EXPECT_TRUE(bundle.check_invariants(workload.registry()));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, InvariantSweep,
    testing::Values(
        Scenario{1, 50.0, 0.0, CacheStrategy::kUtilityExchange},
        Scenario{2, 100.0, 0.0, CacheStrategy::kUtilityExchange},
        Scenario{3, 300.0, 0.0, CacheStrategy::kUtilityExchange},
        Scenario{4, 100.0, 0.3, CacheStrategy::kUtilityExchange},
        Scenario{5, 100.0, 0.0, CacheStrategy::kFifo},
        Scenario{6, 200.0, 0.0, CacheStrategy::kLru},
        Scenario{7, 200.0, 0.2, CacheStrategy::kGds},
        Scenario{8, 500.0, 0.0, CacheStrategy::kUtilityExchange},
        Scenario{9, 20.0, 0.5, CacheStrategy::kUtilityExchange},
        Scenario{10, 100.0, 0.0, CacheStrategy::kGds}),
    [](const testing::TestParamInfo<Scenario>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace dtn
