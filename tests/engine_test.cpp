#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "graph/contact_graph.h"
#include "graph/ncl.h"
#include "sim/link_budget.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

namespace dtn {
namespace {

/// Records every hook invocation for assertions.
class RecordingScheme : public Scheme {
 public:
  std::string name() const override { return "recording"; }

  void on_start(SimServices& services) override {
    start_count++;
    start_time = services.now();
    calls.push_back({"start", services.now()});
  }
  void on_maintenance(SimServices& services) override {
    maintenance_times.push_back(services.now());
    paths_available = !services.paths().empty();
    // The table's full weight matrix, folded in a fixed order: equal sums
    // mean the scheme saw the same table.
    double weights = 0.0;
    const AllPairsPaths& paths = services.paths();
    for (NodeId from = 0; from < paths.node_count(); ++from) {
      for (NodeId to = 0; to < paths.node_count(); ++to) {
        weights += paths.weight(from, to);
      }
    }
    calls.push_back({"maintenance", services.now(), kNoNode, kNoNode, 0,
                     weights});
  }
  void on_data_generated(SimServices& services, const DataItem& item) override {
    data_events.push_back({services.now(), item.id});
    calls.push_back({"data", services.now(), item.source, kNoNode, item.size});
  }
  void on_query(SimServices& services, const Query& query) override {
    query_times.push_back(services.now());
    calls.push_back({"query", services.now(), query.requester});
    if (deliver_immediately) services.deliver(query);
  }
  void on_contact(SimServices& services, NodeId a, NodeId b,
                  LinkBudget& budget) override {
    contacts.push_back({services.now(), a, b, budget.capacity()});
    // One draw per contact pins the scheme's RNG stream.
    calls.push_back({"contact", services.now(), a, b, budget.capacity(),
                     services.rng().uniform()});
  }
  void on_end(SimServices& services) override {
    calls.push_back({"end", services.now()});
  }
  std::size_t cached_copies(Time) const override { return fake_copies; }

  struct ContactRecord {
    Time when;
    NodeId a, b;
    Bytes budget;
  };
  /// One hook call, with everything the engine handed it.
  struct Call {
    std::string hook;
    Time when = 0.0;
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    Bytes bytes = 0;
    double value = 0.0;
    bool operator==(const Call&) const = default;
  };
  std::vector<Call> calls;
  int start_count = 0;
  Time start_time = -1.0;
  bool paths_available = false;
  bool deliver_immediately = false;
  std::size_t fake_copies = 0;
  std::vector<std::pair<Time, DataId>> data_events;
  std::vector<Time> query_times;
  std::vector<Time> maintenance_times;
  std::vector<ContactRecord> contacts;
};

ContactTrace simple_trace() {
  std::vector<ContactEvent> events;
  for (int i = 0; i < 20; ++i) {
    ContactEvent e;
    e.start = 100.0 * (i + 1);
    e.duration = 50.0;
    e.a = i % 3;
    e.b = (i % 3 + 1) % 4 == i % 3 ? 3 : (i % 3 + 1);
    if (e.a == e.b) e.b = (e.a + 1) % 4;
    events.push_back(e);
  }
  return ContactTrace(4, events, "engine-test");
}

Workload simple_workload(Time start, Time end) {
  DataRegistry registry;
  std::vector<WorkloadEvent> events;

  DataItem item;
  item.source = 0;
  item.created = start;
  item.expires = end + 1000.0;
  item.size = 100;
  const DataId id = registry.add(item);
  WorkloadEvent gen;
  gen.time = start;
  gen.kind = WorkloadEvent::Kind::kDataGenerated;
  gen.data = id;
  events.push_back(gen);

  Query q;
  q.id = 0;
  q.requester = 2;
  q.data = id;
  q.issued = start + 300.0;
  q.expires = start + 900.0;
  WorkloadEvent qe;
  qe.time = q.issued;
  qe.kind = WorkloadEvent::Kind::kQueryIssued;
  qe.query = q;
  events.push_back(qe);

  return Workload(std::move(registry), std::move(events));
}

SimConfig test_config() {
  SimConfig c;
  c.path_horizon = 600.0;
  c.maintenance_interval = 500.0;
  c.min_contacts_for_rate = 1;
  return c;
}

TEST(Engine, StartCalledOnceBeforeFirstDataEvent) {
  RecordingScheme scheme;
  const auto trace = simple_trace();
  run_simulation(trace, simple_workload(1000.0, 2000.0), scheme, test_config());
  EXPECT_EQ(scheme.start_count, 1);
  ASSERT_FALSE(scheme.data_events.empty());
  EXPECT_LE(scheme.start_time, scheme.data_events.front().first);
}

TEST(Engine, WarmupContactsNotDelivered) {
  RecordingScheme scheme;
  run_simulation(simple_trace(), simple_workload(1000.0, 2000.0), scheme,
                 test_config());
  for (const auto& c : scheme.contacts) {
    EXPECT_GE(c.when, 1000.0);
  }
}

TEST(Engine, AllDataPhaseContactsDelivered) {
  RecordingScheme scheme;
  const auto result = run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                                     scheme, test_config());
  // Contacts at 1000..2000: events at 1000,1100,...,2000 inclusive = 11.
  EXPECT_EQ(result.contacts_processed, scheme.contacts.size());
  EXPECT_EQ(scheme.contacts.size(), 11u);
}

TEST(Engine, OnEndRunsAtLatestContactEnd) {
  // A long contact early in the trace ends after the last contact: the
  // final sampling instant is the latest contact end, not the last start
  // nor the last contact's end.
  std::vector<ContactEvent> events = simple_trace().events();
  events.push_back({150.0, 10000.0, 0, 3});
  const ContactTrace trace(4, events, "long-contact");
  ASSERT_DOUBLE_EQ(trace.end_time(), 10150.0);
  ASSERT_LT(trace.events().back().end(), trace.end_time());

  RecordingScheme scheme;
  run_simulation(trace, simple_workload(1000.0, 2000.0), scheme,
                 test_config());
  ASSERT_FALSE(scheme.calls.empty());
  EXPECT_EQ(scheme.calls.back(),
            (RecordingScheme::Call{"end", trace.end_time()}));

  // A data phase that starts after the trace ends moves on_end to the
  // phase start.
  RecordingScheme late;
  run_simulation(trace, simple_workload(20000.0, 21000.0), late,
                 test_config());
  ASSERT_FALSE(late.calls.empty());
  EXPECT_EQ(late.calls.back(), (RecordingScheme::Call{"end", 20000.0}));
}

TEST(Engine, LinkBudgetFromDurationAndBandwidth) {
  RecordingScheme scheme;
  SimConfig config = test_config();
  config.bandwidth_per_second = 1000;  // bytes/s
  run_simulation(simple_trace(), simple_workload(1000.0, 2000.0), scheme, config);
  for (const auto& c : scheme.contacts) {
    EXPECT_EQ(c.budget, 50 * 1000);  // 50 s contacts
  }
}

TEST(Engine, MaintenanceTicksAtInterval) {
  RecordingScheme scheme;
  run_simulation(simple_trace(), simple_workload(1000.0, 2000.0), scheme,
                 test_config());
  ASSERT_GE(scheme.maintenance_times.size(), 2u);
  EXPECT_DOUBLE_EQ(scheme.maintenance_times[0], 1000.0);
  EXPECT_DOUBLE_EQ(scheme.maintenance_times[1], 1500.0);
  EXPECT_TRUE(scheme.paths_available);
}

TEST(Engine, QueryCountsInMetrics) {
  RecordingScheme scheme;
  const auto result = run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                                     scheme, test_config());
  EXPECT_EQ(result.metrics.queries_issued(), 1u);
  EXPECT_EQ(result.metrics.queries_satisfied(), 0u);
  EXPECT_EQ(result.metrics.success_ratio(), 0.0);
}

TEST(Engine, ImmediateDeliveryRecordsZeroDelay) {
  RecordingScheme scheme;
  scheme.deliver_immediately = true;
  const auto result = run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                                     scheme, test_config());
  EXPECT_EQ(result.metrics.queries_satisfied(), 1u);
  EXPECT_DOUBLE_EQ(result.metrics.success_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.mean_delay(), 0.0);
}

TEST(Engine, CopySamplingUsesAliveItems) {
  RecordingScheme scheme;
  scheme.fake_copies = 4;
  const auto result = run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                                     scheme, test_config());
  // One data item alive during sampling: copies/item = 4.
  EXPECT_DOUBLE_EQ(result.metrics.mean_copies(), 4.0);
}

TEST(Engine, InvalidConfigsThrow) {
  RecordingScheme scheme;
  SimConfig c = test_config();
  c.bandwidth_per_second = 0;
  EXPECT_THROW(run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                              scheme, c),
               std::invalid_argument);
  c = test_config();
  c.path_horizon = 0.0;
  EXPECT_THROW(run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                              scheme, c),
               std::invalid_argument);
  c = test_config();
  c.maintenance_interval = 0.0;
  EXPECT_THROW(run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                              scheme, c),
               std::invalid_argument);
  c = test_config();
  c.max_hops = 0;
  EXPECT_THROW(run_simulation(simple_trace(), simple_workload(1000.0, 2000.0),
                              scheme, c),
               std::invalid_argument);
}

/// Every MetricsCollector output and engine count of two runs.
void expect_same_run(const RunResult& lane, const RunResult& solo) {
  EXPECT_EQ(lane.contacts_processed, solo.contacts_processed);
  EXPECT_EQ(lane.maintenance_ticks, solo.maintenance_ticks);
  const MetricsCollector& x = lane.metrics;
  const MetricsCollector& y = solo.metrics;
  EXPECT_EQ(x.queries_issued(), y.queries_issued());
  EXPECT_EQ(x.queries_satisfied(), y.queries_satisfied());
  EXPECT_EQ(x.duplicate_deliveries(), y.duplicate_deliveries());
  EXPECT_EQ(x.success_ratio(), y.success_ratio());
  EXPECT_EQ(x.mean_delay(), y.mean_delay());
  EXPECT_EQ(x.delay_stats().count(), y.delay_stats().count());
  EXPECT_EQ(x.delay_stats().variance(), y.delay_stats().variance());
  EXPECT_EQ(x.delay_stats().min(), y.delay_stats().min());
  EXPECT_EQ(x.delay_stats().max(), y.delay_stats().max());
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(x.delay_percentile(q), y.delay_percentile(q));
  }
  EXPECT_EQ(x.mean_copies(), y.mean_copies());
  EXPECT_EQ(x.bytes_transferred(), y.bytes_transferred());
  EXPECT_EQ(x.replacement_overhead(), y.replacement_overhead());
}

struct LaneSpec {
  const Workload* workload;
  std::uint64_t seed;
};
using SchemeFactory =
    std::function<std::unique_ptr<Scheme>(std::size_t lane, std::size_t i)>;

/// Runs `specs` as lanes of `per_lane` schemes each, then every (lane,
/// scheme) alone with config.seed = the lane's seed, at threads 1 and 4, and
/// checks that each cell matches its solo run — for RecordingSchemes down
/// to the full call log.
void expect_lanes_match_solo_runs(const ContactTrace& trace,
                                  const std::vector<LaneSpec>& specs,
                                  std::size_t per_lane, SimConfig config,
                                  const SchemeFactory& make) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    config.threads = threads;
    std::vector<std::unique_ptr<Scheme>> owned;
    std::vector<SimLane> lanes;
    for (std::size_t l = 0; l < specs.size(); ++l) {
      SimLane lane{specs[l].workload, {}, specs[l].seed};
      for (std::size_t i = 0; i < per_lane; ++i) {
        owned.push_back(make(l, i));
        lane.schemes.push_back(owned.back().get());
      }
      lanes.push_back(std::move(lane));
    }
    const std::vector<std::vector<RunResult>> results =
        run_simulation(trace, lanes, config);

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t l = 0; l < specs.size(); ++l) {
      ASSERT_EQ(results[l].size(), per_lane);
      for (std::size_t i = 0; i < per_lane; ++i) {
        SCOPED_TRACE("lane " + std::to_string(l) + ", scheme " +
                     std::to_string(i));
        const std::unique_ptr<Scheme> solo = make(l, i);
        SimConfig solo_config = config;
        solo_config.seed = specs[l].seed;
        const RunResult alone =
            run_simulation(trace, *specs[l].workload, *solo, solo_config);
        expect_same_run(results[l][i], alone);
        const auto* recorded =
            dynamic_cast<const RecordingScheme*>(lanes[l].schemes[i]);
        if (recorded != nullptr) {
          const auto& solo_calls =
              dynamic_cast<const RecordingScheme&>(*solo).calls;
          ASSERT_EQ(recorded->calls.size(), solo_calls.size());
          EXPECT_TRUE(recorded->calls == solo_calls);
        }
      }
    }
  }
}

/// Recording schemes that differ within a lane: half deliver every query
/// at once, and each reports its own copy count.
std::unique_ptr<Scheme> make_recorder(std::size_t, std::size_t i) {
  auto scheme = std::make_unique<RecordingScheme>();
  scheme->deliver_immediately = i % 2 == 0;
  scheme->fake_copies = i + 1;
  return scheme;
}

ContactTrace lane_trace(double contacts) {
  SyntheticTraceConfig tc;
  tc.node_count = 12;
  tc.duration = days(2);
  tc.target_total_contacts = contacts;
  tc.seed = 21;
  return generate_trace(tc);
}

/// A workload over the trace's second half; `seed` also moves its first
/// event, and so the lane's tick grid.
Workload lane_workload(const ContactTrace& trace, std::uint64_t seed) {
  WorkloadConfig wc;
  wc.start = trace.start_time() + trace.duration() / 2.0;
  wc.end = trace.end_time();
  wc.avg_lifetime = hours(6);
  wc.avg_size = megabits(20);
  wc.seed = seed;
  return generate_workload(wc, trace.node_count());
}

TEST(Engine, LanesReproduceSoloRunsUnderFailureInjection) {
  const ContactTrace trace = simple_trace();
  // Different first workload events: the lanes tick at 1000, 1500, ... and
  // at 1250, 1750, ...
  const Workload early = simple_workload(1000.0, 2000.0);
  const Workload late = simple_workload(1250.0, 2000.0);
  SimConfig config = test_config();
  config.contact_miss_prob = 0.1;
  config.node_downtime = {{1, 900.0, 1300.0}, {3, 1600.0, 1800.0}};
  expect_lanes_match_solo_runs(trace, {{&early, 11}, {&late, 12}}, 3, config,
                               make_recorder);
}

TEST(Engine, LanesReproduceSoloRunsOfEverySchemeWithDynamicNcl) {
  const ContactTrace trace = lane_trace(4000);
  const Workload first = lane_workload(trace, 1);
  const Workload second = lane_workload(trace, 2);
  ASSERT_NE(first.events().front().time, second.events().front().time);

  ExperimentConfig config;
  config.ncl_count = 3;
  config.dynamic_ncl = true;
  config.buffer_min = megabits(40);
  config.buffer_max = megabits(120);
  config.auto_horizon = false;
  config.sim.path_horizon = hours(4);
  config.sim.maintenance_interval = hours(3);
  config.sim.contact_miss_prob = 0.1;
  const WarmupContext warmup = make_warmup_context(trace, config);
  const NclSelection ncls =
      select_ncls(warmup.graph, warmup.horizon, config.ncl_count,
                  config.sim.max_hops, 1);
  const std::vector<SchemeKind> kinds = {
      SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
      SchemeKind::kCacheData, SchemeKind::kBundleCache};
  const SchemeFactory make = [&](std::size_t lane, std::size_t i) {
    return make_scheme(kinds[i], config, ncls,
                       draw_buffer_capacities(config, trace.node_count(),
                                              lane + 5));
  };
  expect_lanes_match_solo_runs(trace, {{&first, 31}, {&second, 32}},
                               kinds.size(), config.sim, make);
}

TEST(Engine, LanesReproduceSoloRunsAcrossQueueBoundaries) {
  // One tick at the start of the data phase, then thousands of contacts:
  // the lanes cut their queues between ticks.
  const ContactTrace trace = lane_trace(12000);
  const Workload first = lane_workload(trace, 3);
  const Workload second = lane_workload(trace, 4);
  SimConfig config = test_config();
  config.maintenance_interval = days(30);
  RecordingScheme probe;
  const RunResult run = run_simulation(trace, first, probe, config);
  ASSERT_EQ(run.maintenance_ticks, 1u);
  ASSERT_GT(run.contacts_processed, 4096u);
  // Independent of the queues: every data-phase contact and every workload
  // event reaches the scheme, in order.
  std::vector<Time> data_phase;
  for (const ContactEvent& e : trace.events()) {
    if (e.start >= first.events().front().time) data_phase.push_back(e.start);
  }
  ASSERT_EQ(probe.contacts.size(), data_phase.size());
  for (std::size_t i = 0; i < data_phase.size(); ++i) {
    EXPECT_EQ(probe.contacts[i].when, data_phase[i]);
  }
  EXPECT_EQ(probe.data_events.size() + probe.query_times.size(),
            first.events().size());
  expect_lanes_match_solo_runs(trace, {{&first, 41}, {&second, 42}}, 2,
                               config, make_recorder);
}

/// Stores the time and the full weight matrix of every tick it sees.
class TableRecorder : public Scheme {
 public:
  std::string name() const override { return "tables"; }
  void on_maintenance(SimServices& services) override {
    ticks.push_back({services.now(), weight_matrix(services.paths())});
  }
  void on_data_generated(SimServices&, const DataItem&) override {}
  void on_query(SimServices&, const Query&) override {}
  void on_contact(SimServices&, NodeId, NodeId, LinkBudget&) override {}
  std::size_t cached_copies(Time) const override { return 0; }

  static std::vector<double> weight_matrix(const AllPairsPaths& paths) {
    std::vector<double> weights;
    for (NodeId from = 0; from < paths.node_count(); ++from) {
      for (NodeId to = 0; to < paths.node_count(); ++to) {
        weights.push_back(paths.weight(from, to));
      }
    }
    return weights;
  }

  struct Tick {
    Time when = 0.0;
    std::vector<double> weights;
  };
  std::vector<Tick> ticks;
};

/// The weight matrix a tick at `when` must carry, built outside the engine
/// from the trace's contacts that start before the tick.
std::vector<double> table_at_tick(const ContactTrace& trace, Time when,
                                  const SimConfig& config) {
  RateEstimator estimator(std::max<NodeId>(trace.node_count(), 2),
                          config.rate_decay);
  for (const ContactEvent& e : trace.events()) {
    if (e.start < when) estimator.record_contact(e.a, e.b, e.start);
  }
  return TableRecorder::weight_matrix(
      AllPairsPaths(estimator.snapshot(when, config.min_contacts_for_rate),
                    config.path_horizon, config.max_hops, 1));
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(Engine, EachTickHandsItsSchemesThatTicksTable) {
  // Two lanes on different tick grids, so one lane's table is published
  // while the other's schemes still replay an earlier stretch. Without
  // failure injection every lane estimates rates from the whole trace.
  const ContactTrace trace = lane_trace(4000);
  const Workload first = lane_workload(trace, 5);
  const Workload second = lane_workload(trace, 6);
  ASSERT_NE(first.events().front().time, second.events().front().time);
  SimConfig config;
  config.path_horizon = hours(4);
  config.maintenance_interval = hours(3);
  const std::vector<const Workload*> workloads = {&first, &second};

  for (int threads : {1, 3, 8}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    config.threads = threads;
    std::vector<TableRecorder> recorders(4);
    run_simulation(trace,
                   {SimLane{&first, {&recorders[0], &recorders[1]}, 51},
                    SimLane{&second, {&recorders[2], &recorders[3]}, 52}},
                   config);
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      SCOPED_TRACE("lane " + std::to_string(i / 2) + ", scheme " +
                   std::to_string(i % 2));
      const auto& ticks = recorders[i].ticks;
      ASSERT_GE(ticks.size(), 4u);
      Time when = workloads[i / 2]->events().front().time;
      for (const TableRecorder::Tick& tick : ticks) {
        ASSERT_EQ(tick.when, when);
        EXPECT_TRUE(same_bits(tick.weights, table_at_tick(trace, when, config)))
            << "tick at " << when;
        when += config.maintenance_interval;
      }
    }
  }
}

TEST(MetricsCollector, LateDeliveryDoesNotCount) {
  MetricsCollector m;
  Query q;
  q.id = 1;
  q.issued = 0.0;
  q.expires = 10.0;
  m.on_query_issued(q);
  m.on_delivery(q, 10.0);  // exactly at expiry: too late
  EXPECT_EQ(m.queries_satisfied(), 0u);
  m.on_delivery(q, 5.0);
  EXPECT_EQ(m.queries_satisfied(), 1u);
  EXPECT_DOUBLE_EQ(m.mean_delay(), 5.0);
}

TEST(MetricsCollector, DuplicateDeliveriesCountedSeparately) {
  MetricsCollector m;
  Query q;
  q.id = 1;
  q.issued = 0.0;
  q.expires = 10.0;
  m.on_query_issued(q);
  m.on_delivery(q, 2.0);
  m.on_delivery(q, 3.0);
  EXPECT_EQ(m.queries_satisfied(), 1u);
  EXPECT_EQ(m.duplicate_deliveries(), 1u);
  EXPECT_DOUBLE_EQ(m.mean_delay(), 2.0);
}

TEST(MetricsCollector, DelayPercentiles) {
  MetricsCollector m;
  for (QueryId id = 0; id < 10; ++id) {
    Query q;
    q.id = id;
    q.issued = 0.0;
    q.expires = 1000.0;
    m.on_query_issued(q);
    m.on_delivery(q, static_cast<double>(id + 1) * 10.0);  // 10..100
  }
  EXPECT_DOUBLE_EQ(m.delay_percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(m.delay_percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(m.delay_percentile(0.5), 55.0);
  EXPECT_DOUBLE_EQ(m.mean_delay(), 55.0);
}

TEST(MetricsCollector, DelayPercentileEmptyIsZero) {
  MetricsCollector m;
  EXPECT_EQ(m.delay_percentile(0.5), 0.0);
}

TEST(MetricsCollector, ReplacementOverheadNormalized) {
  MetricsCollector m;
  m.set_data_count(4);
  m.on_replacement(2);
  m.on_replacement(6);
  EXPECT_DOUBLE_EQ(m.replacement_overhead(), 2.0);
}

TEST(LinkBudget, ConsumeSemantics) {
  LinkBudget b(100);
  EXPECT_EQ(b.capacity(), 100);
  EXPECT_TRUE(b.can_transfer(100));
  EXPECT_TRUE(b.consume(60));
  EXPECT_EQ(b.remaining(), 40);
  EXPECT_EQ(b.used(), 60);
  EXPECT_FALSE(b.consume(50));
  EXPECT_EQ(b.remaining(), 40);  // failed consume charges nothing
  EXPECT_TRUE(b.consume(40));
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.consume(-1));
}

TEST(LinkBudget, NegativeCapacityClamped) {
  LinkBudget b(-10);
  EXPECT_EQ(b.capacity(), 0);
  EXPECT_TRUE(b.exhausted());
}

}  // namespace
}  // namespace dtn
