// Failure-injection tests: missed contacts and node downtime degrade
// performance gracefully and deterministically.
#include <gtest/gtest.h>

#include "experiment/experiment.h"
#include "sim/engine.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

/// Scheme counting the contacts it sees.
class ContactCounter : public Scheme {
 public:
  std::string name() const override { return "counter"; }
  void on_data_generated(SimServices&, const DataItem&) override {}
  void on_query(SimServices&, const Query&) override {}
  void on_contact(SimServices&, NodeId a, NodeId b, LinkBudget&) override {
    ++contacts;
    (void)a;
    (void)b;
  }
  std::size_t cached_copies(Time) const override { return 0; }
  std::size_t contacts = 0;
};

ContactTrace tiny_trace() {
  SyntheticTraceConfig c;
  c.node_count = 10;
  c.duration = days(4);
  c.target_total_contacts = 2000;
  c.seed = 31;
  return generate_trace(c);
}

Workload tiny_workload(const ContactTrace& trace) {
  WorkloadConfig wc;
  wc.start = trace.start_time() + trace.duration() / 2.0;
  wc.end = trace.end_time();
  wc.avg_lifetime = hours(12);
  wc.seed = 3;
  return generate_workload(wc, trace.node_count());
}

SimConfig base_sim() {
  SimConfig c;
  c.path_horizon = hours(6);
  c.maintenance_interval = hours(6);
  return c;
}

TEST(FailureInjection, ZeroMissProbIsNoOp) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter a, b;
  SimConfig config = base_sim();
  run_simulation(trace, workload, a, config);
  config.contact_miss_prob = 0.0;
  run_simulation(trace, workload, b, config);
  EXPECT_EQ(a.contacts, b.contacts);
}

TEST(FailureInjection, MissProbDropsContacts) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter baseline, lossy;
  SimConfig config = base_sim();
  run_simulation(trace, workload, baseline, config);
  config.contact_miss_prob = 0.5;
  run_simulation(trace, workload, lossy, config);
  EXPECT_LT(lossy.contacts, baseline.contacts);
  EXPECT_GT(lossy.contacts, 0u);
  // Roughly half survive.
  EXPECT_NEAR(static_cast<double>(lossy.contacts),
              0.5 * static_cast<double>(baseline.contacts),
              0.1 * static_cast<double>(baseline.contacts));
}

TEST(FailureInjection, MissProbOneDropsEverything) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter scheme;
  SimConfig config = base_sim();
  config.contact_miss_prob = 1.0;
  run_simulation(trace, workload, scheme, config);
  EXPECT_EQ(scheme.contacts, 0u);
}

TEST(FailureInjection, Deterministic) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter a, b;
  SimConfig config = base_sim();
  config.contact_miss_prob = 0.3;
  run_simulation(trace, workload, a, config);
  run_simulation(trace, workload, b, config);
  EXPECT_EQ(a.contacts, b.contacts);
}

TEST(FailureInjection, DowntimeBlocksNode) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter baseline, failed;
  SimConfig config = base_sim();
  run_simulation(trace, workload, baseline, config);
  // Node 0 down for the entire trace.
  config.node_downtime.push_back({0, 0.0, trace.end_time() + 1.0});
  run_simulation(trace, workload, failed, config);
  EXPECT_LT(failed.contacts, baseline.contacts);
}

TEST(FailureInjection, DowntimeOutsideWindowIsNoOp) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter baseline, shifted;
  SimConfig config = base_sim();
  run_simulation(trace, workload, baseline, config);
  config.node_downtime.push_back(
      {0, trace.end_time() + 100.0, trace.end_time() + 200.0});
  run_simulation(trace, workload, shifted, config);
  EXPECT_EQ(shifted.contacts, baseline.contacts);
}

TEST(FailureInjection, InvalidConfigThrows) {
  const ContactTrace trace = tiny_trace();
  const Workload workload = tiny_workload(trace);
  ContactCounter scheme;
  SimConfig config = base_sim();
  config.contact_miss_prob = 1.5;
  EXPECT_THROW(run_simulation(trace, workload, scheme, config),
               std::invalid_argument);
  config = base_sim();
  config.node_downtime.push_back({0, 10.0, 5.0});
  EXPECT_THROW(run_simulation(trace, workload, scheme, config),
               std::invalid_argument);
}

TEST(FailureInjection, NclSchemeDegradesGracefully) {
  // End-to-end: moderate contact loss lowers but does not zero the ratio.
  SyntheticTraceConfig tc;
  tc.node_count = 20;
  tc.duration = days(20);
  tc.target_total_contacts = 4000;
  tc.seed = 17;
  const ContactTrace trace = generate_trace(tc);

  ExperimentConfig config;
  config.avg_lifetime = days(3);
  config.avg_data_size = megabits(50);
  config.ncl_count = 3;
  config.repetitions = 1;
  config.sim.maintenance_interval = hours(12);

  const double clean =
      run_experiment(trace, SchemeKind::kNclCache, config).success_ratio.mean();
  config.sim.contact_miss_prob = 0.5;
  const double lossy =
      run_experiment(trace, SchemeKind::kNclCache, config).success_ratio.mean();
  EXPECT_GT(clean, 0.0);
  EXPECT_LT(lossy, clean);
}

}  // namespace
}  // namespace dtn
