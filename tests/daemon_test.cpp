// Serving daemon suite (src/daemon/, DESIGN.md §13).
//
// The headline contract is equivalence: a daemon that repairs its path
// tables incrementally (parent-pointer tree scan + one-step endpoint
// drift detector + per-root subtree re-settles or re-runs) must end every
// batch with tables bit-identical to a from-scratch rebuild of its own
// graph by the reference construction (compute_opportunistic_paths_reference)
// — across drift thresholds, traces, and thread counts. The suite pins
// that from four directions: estimator unit behavior, the per-batch count
// of roots the scan selects and of those re-settled locally, the
// audit-equivalence matrix (3 thresholds x 2 traces, EXPECT_EQ on every
// entry field plus the NCL set), and byte-identical ingest->query script
// output across runs and thread counts. A TSan-facing test runs query
// threads concurrently with the ingest loop at both repair paths (serial
// and pool): readers must see only whole published snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/rate_estimator.h"
#include "daemon/script.h"
#include "graph/all_pairs.h"
#include "graph/ncl.h"
#include "trace/synthetic.h"

namespace dtn {
namespace {

using daemon::Daemon;
using daemon::DaemonConfig;
using daemon::EwmaRateEstimator;
using daemon::ReplayFeed;

ContactTrace small_trace(std::uint64_t seed, NodeId nodes = 20,
                         double trace_days = 2.0) {
  SyntheticTraceConfig config;
  config.node_count = nodes;
  config.duration = days(trace_days);
  config.target_total_contacts = static_cast<double>(nodes) * 250.0;
  config.seed = seed;
  return generate_trace(config);
}

DaemonConfig test_config() {
  DaemonConfig config;
  config.horizon = hours(1.0);
  config.repair_interval = hours(2.0);
  return config;
}

// ---- EwmaRateEstimator -------------------------------------------------

TEST(EwmaRateEstimator, PairIndexRoundTrips) {
  const EwmaRateEstimator est(7);
  std::size_t expect = 0;
  for (NodeId a = 0; a < 7; ++a) {
    for (NodeId b = a + 1; b < 7; ++b) {
      EXPECT_EQ(est.pair_index(a, b), expect);
      EXPECT_EQ(est.pair_index(b, a), expect);  // symmetric
      NodeId ra = kNoNode;
      NodeId rb = kNoNode;
      est.pair_nodes(expect, ra, rb);
      EXPECT_EQ(ra, a);
      EXPECT_EQ(rb, b);
      ++expect;
    }
  }
}

TEST(EwmaRateEstimator, EwmaRuleMatchesHandComputation) {
  EwmaRateEstimator est(3, 0.25);
  est.record(0, 1, 100.0);
  EXPECT_EQ(est.rate(0, 1), 0.0);  // one contact: no gap yet
  est.record(0, 1, 160.0);         // first gap 60 seeds the EWMA
  EXPECT_DOUBLE_EQ(est.rate(0, 1), 1.0 / 60.0);
  est.record(0, 1, 260.0);  // gap 100: 0.25*100 + 0.75*60 = 70
  EXPECT_DOUBLE_EQ(est.rate(0, 1), 1.0 / 70.0);
  const daemon::PairRateSummary summary = est.summary(0, 1);
  EXPECT_EQ(summary.count, 3u);
  EXPECT_DOUBLE_EQ(summary.mean_gap, (60.0 + 100.0) / 2.0);
  EXPECT_DOUBLE_EQ(summary.ewma_gap, 70.0);
}

TEST(EwmaRateEstimator, DuplicateTimestampsDoNotPoisonTheRate) {
  EwmaRateEstimator est(3);
  est.record(1, 2, 50.0);
  est.record(1, 2, 50.0);  // same meeting reported twice: gap 0
  EXPECT_EQ(est.contact_count(1, 2), 2u);
  EXPECT_EQ(est.rate(1, 2), 0.0);  // no positive gap yet -> no rate
  est.record(1, 2, 80.0);
  EXPECT_DOUBLE_EQ(est.rate(1, 2), 1.0 / 30.0);  // seeded by the 30s gap
}

TEST(EwmaRateEstimator, MinContactsFloorSuppressesSingletons) {
  EwmaRateEstimator est(4);
  est.record(0, 3, 10.0);
  EXPECT_EQ(est.rate(0, 3), 0.0);  // 1 contact < kMinContactsForRate
  est.record(0, 3, 20.0);
  EXPECT_GT(est.rate(0, 3), 0.0);
}

TEST(EwmaRateEstimator, ExpiryDecayMatchesHandComputation) {
  // alpha 0.5, expiry 100 s. Pair (0,1) meets at t = 0, 10, 20: gaps
  // {10, 10}, EWMA 10, rate 0.1. The watermark is stream data — contacts
  // of *other* pairs move it and with it the silence of (0,1).
  EwmaRateEstimator est(3, 0.5, 100.0);
  est.record(0, 1, 0.0);
  est.record(0, 1, 10.0);
  est.record(0, 1, 20.0);
  EXPECT_EQ(est.watermark(), 20.0);
  EXPECT_DOUBLE_EQ(est.rate(0, 1), 0.1);

  // Silence 5 <= EWMA 10: no evidence of decay, rate unchanged.
  est.record(0, 2, 25.0);
  EXPECT_DOUBLE_EQ(est.rate(0, 1), 0.1);

  // Silence 30 in (EWMA, expiry): blend the ongoing gap in provisionally,
  // rate = 1 / (0.5*30 + 0.5*10) = 1/20.
  est.record(0, 2, 50.0);
  EXPECT_EQ(est.watermark(), 50.0);
  EXPECT_DOUBLE_EQ(est.rate(0, 1), 0.05);

  // Silence 100 >= expiry: the pair has expired, rate 0.
  est.record(0, 2, 120.0);
  EXPECT_EQ(est.rate(0, 1), 0.0);

  // The legacy estimator (expiry 0) fed the same stream never decays.
  EwmaRateEstimator legacy(3, 0.5);
  legacy.record(0, 1, 0.0);
  legacy.record(0, 1, 10.0);
  legacy.record(0, 1, 20.0);
  legacy.record(0, 2, 25.0);
  legacy.record(0, 2, 50.0);
  legacy.record(0, 2, 120.0);
  EXPECT_DOUBLE_EQ(legacy.rate(0, 1), 0.1);
}

TEST(EwmaRateEstimator, RejectsNegativeExpiry) {
  EXPECT_THROW(EwmaRateEstimator(3, 0.125, -1.0), std::invalid_argument);
}

TEST(EwmaRateEstimator, WarmStartEqualsIncrementalFeed) {
  const ContactTrace trace = small_trace(7);
  EwmaRateEstimator batch(trace.node_count());
  batch.warm_start(trace);
  EwmaRateEstimator incremental(trace.node_count());
  for (const ContactEvent& event : trace.events()) {
    incremental.record(event.a, event.b, event.start);
  }
  const auto a = batch.summaries();
  const auto b = incremental.summaries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].ewma_gap, b[i].ewma_gap);
    EXPECT_EQ(a[i].rate, b[i].rate);
  }
  // Canonical ascending order: golden-testable without sorting.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_TRUE(a[i - 1].a < a[i].a ||
                (a[i - 1].a == a[i].a && a[i - 1].b < a[i].b));
  }
}

// ---- incremental repair equivalence (the acceptance matrix) ------------

/// Every root of the snapshot's graph rebuilt by the reference construction.
std::vector<PathTable> reference_tables(const daemon::Snapshot& snap,
                                        const DaemonConfig& config) {
  std::vector<PathTable> tables;
  for (NodeId root = 0; root < snap.graph.node_count(); ++root) {
    tables.push_back(compute_opportunistic_paths_reference(
        snap.graph, root, config.horizon, config.max_hops));
  }
  return tables;
}

/// Replays `trace` (second half live, first half warm) through a daemon,
/// then EXPECT_EQs every entry field and the NCL set against a fresh
/// reference rebuild of the daemon's own graph.
void expect_repair_equivalence(const ContactTrace& trace, double drift) {
  DaemonConfig config = test_config();
  config.drift_threshold = drift;
  config.audit = true;  // every batch also self-checks internally
  Daemon d(trace.node_count(), config);

  const std::size_t split = trace.size() / 2;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));
  for (std::size_t i = split; i < trace.size(); ++i) {
    d.ingest(trace.events()[i]);
  }
  d.repair_now();

  const auto snap = d.snapshot();
  ASSERT_TRUE(snap->ready());
  const std::vector<PathTable> reference = reference_tables(*snap, config);
  const NodeId n = trace.node_count();
  for (NodeId r = 0; r < n; ++r) {
    for (NodeId node = 0; node < n; ++node) {
      const PathTable::Entry& got =
          snap->tables[static_cast<std::size_t>(r)].entry(node);
      const PathTable::Entry& want =
          reference[static_cast<std::size_t>(r)].entry(node);
      EXPECT_EQ(got.weight, want.weight)
          << "root " << r << " node " << node << " drift " << drift;
      EXPECT_EQ(got.last_rate, want.last_rate)
          << "root " << r << " node " << node << " drift " << drift;
      EXPECT_EQ(got.next_hop, want.next_hop)
          << "root " << r << " node " << node << " drift " << drift;
      EXPECT_EQ(got.hops, want.hops)
          << "root " << r << " node " << node << " drift " << drift;
    }
  }
  // NCL set equality at k = 5 through the real selector.
  const NclSelection selection =
      select_ncls(snap->graph, config.horizon, 5, config.max_hops, 1);
  const daemon::NclAnswer answer = d.ncl_set(5);
  EXPECT_EQ(answer.central, selection.central_nodes) << "drift " << drift;
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(snap->metric[static_cast<std::size_t>(i)],
              selection.metric[static_cast<std::size_t>(i)])
        << "node " << i << " drift " << drift;
  }
}

TEST(DaemonRepair, EquivalentToReferenceRebuildAcrossThresholdsTraceA) {
  const ContactTrace trace = small_trace(3);
  for (const double drift : {0.05, 0.2, 0.5}) {
    expect_repair_equivalence(trace, drift);
  }
}

TEST(DaemonRepair, EquivalentToReferenceRebuildAcrossThresholdsTraceB) {
  const ContactTrace trace = small_trace(29, 16, 3.0);
  for (const double drift : {0.05, 0.2, 0.5}) {
    expect_repair_equivalence(trace, drift);
  }
}

TEST(DaemonRepair, NewlyConnectedComponentIsDiscovered) {
  // Regression guard for the endpoint detector's "new edge" case: a pair
  // that never met during warm start starts meeting afterwards; once its
  // estimate crosses the floor the repair must pull the new reachability
  // into every affected table (audit cross-checks internally too).
  DaemonConfig config = test_config();
  config.audit = true;
  Daemon d(4, config);

  std::vector<ContactEvent> warm;
  for (int i = 0; i < 8; ++i) {
    // Two disjoint pairs: 0-1 and 2-3.
    warm.push_back({0.0 + 600.0 * i, 60.0, 0, 1});
    warm.push_back({300.0 + 600.0 * i, 60.0, 2, 3});
  }
  d.warm_start(ContactTrace(4, warm, "warm"));
  EXPECT_EQ(d.path_weight(0, 3, hours(1.0)).weight, 0.0);  // disconnected

  // Bridge 1-2 appears in the live stream.
  for (int i = 0; i < 8; ++i) {
    d.ingest({5000.0 + 600.0 * i, 60.0, 1, 2});
  }
  d.repair_now();
  EXPECT_GT(d.path_weight(0, 3, hours(1.0)).weight, 0.0);
  const auto snap = d.snapshot();
  const std::vector<PathTable> reference = reference_tables(*snap, config);
  for (NodeId r = 0; r < 4; ++r) {
    for (NodeId node = 0; node < 4; ++node) {
      EXPECT_EQ(snap->tables[static_cast<std::size_t>(r)].weight(node),
                reference[static_cast<std::size_t>(r)].weight(node));
    }
  }
}

struct BatchCounts {
  std::vector<std::uint64_t> roots;  ///< roots_repaired per repair batch
  std::vector<std::uint64_t> edges;  ///< edge_updates per repair batch
  std::vector<std::uint64_t> local;  ///< roots_local per repair batch
  std::uint64_t resettled = 0;       ///< nodes_resettled over the replay
};

/// Warm-starts on the first half of `trace`, replays the second half at
/// drift 0.5 and records what every repair batch repaired. At that drift
/// few edges change per batch, so most batches flag only part of the
/// roots, and some flag none although an edge changed.
BatchCounts per_batch_counts(const ContactTrace& trace) {
  DaemonConfig config = test_config();
  config.drift_threshold = 0.5;
  Daemon d(trace.node_count(), config);
  const std::size_t split = trace.size() / 2;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));

  BatchCounts counts;
  const auto step = [&](const auto& feed) {
    const Daemon::Stats before = d.stats();
    feed();
    const Daemon::Stats& after = d.stats();
    if (after.repair_batches == before.repair_batches) return;
    counts.roots.push_back(after.roots_repaired - before.roots_repaired);
    counts.edges.push_back(after.edge_updates - before.edge_updates);
    counts.local.push_back(after.roots_local - before.roots_local);
    counts.resettled += after.nodes_resettled - before.nodes_resettled;
  };
  for (std::size_t i = split; i < trace.size(); ++i) {
    step([&] { d.ingest(trace.events()[i]); });
  }
  step([&] { d.repair_now(); });
  return counts;
}

TEST(DaemonRepair, RootSelectionMatchesRecordedPerBatchCounts) {
  // Recorded with the reverse edge->roots index the parent-pointer scan
  // replaced: the scan must flag exactly the roots the index flagged, and
  // the one-pass batch that classifies each root must re-run the same.
  const BatchCounts a = per_batch_counts(small_trace(3));
  EXPECT_EQ(a.roots, (std::vector<std::uint64_t>{10, 19, 0, 0, 13, 17, 19,
                                                 17, 20, 19, 19, 7}));
  EXPECT_EQ(a.edges,
            (std::vector<std::uint64_t>{6, 3, 1, 1, 6, 8, 4, 3, 8, 6, 5, 7}));

  const BatchCounts b = per_batch_counts(small_trace(29, 16, 3.0));
  EXPECT_EQ(b.roots, (std::vector<std::uint64_t>{0, 4, 8, 14, 15, 3, 0, 13, 4,
                                                 5, 10, 2, 16, 0, 15, 14, 0,
                                                 11}));
  EXPECT_EQ(b.edges, (std::vector<std::uint64_t>{0, 2, 2, 5, 4, 1, 0, 2, 2, 2,
                                                 5, 2, 6, 1, 3, 4, 0, 3}));

  // Of those roots, the ones that re-settled only the subtrees under their
  // changed tree edges and fired adoption tests, grown by the kept nodes
  // their offers reached, and the nodes those subtrees held.
  EXPECT_EQ(a.local, (std::vector<std::uint64_t>{10, 17, 0, 0, 13, 17, 18, 16,
                                                 20, 18, 18, 7}));
  EXPECT_EQ(a.resettled, 303u);
  EXPECT_EQ(b.local, (std::vector<std::uint64_t>{0, 4, 8, 14, 15, 3, 0, 13, 4,
                                                 5, 10, 2, 16, 0, 13, 12, 0,
                                                 11}));
  EXPECT_EQ(b.resettled, 316u);
}

/// Contact stream for the expiry tests: pair 0-1 meets three times early
/// and then goes silent while 0-2, 1-2 and 2-3 keep meeting, moving the
/// watermark far past 0-1's expiry.
std::vector<ContactEvent> expiring_pair_events() {
  std::vector<ContactEvent> events;
  events.push_back({0.0, 30.0, 0, 1});
  events.push_back({60.0, 30.0, 0, 1});
  events.push_back({120.0, 30.0, 0, 1});
  for (double t = 0.0; t <= 7200.0; t += 200.0) {
    events.push_back({t, 30.0, 2, 3});
  }
  for (double t = 50.0; t <= 7200.0; t += 250.0) {
    events.push_back({t, 30.0, 1, 2});
  }
  for (double t = 100.0; t <= 7200.0; t += 300.0) {
    events.push_back({t, 30.0, 0, 2});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ContactEvent& a, const ContactEvent& b) {
                     return a.start < b.start;
                   });
  return events;
}

std::unique_ptr<Daemon> expired_pair_daemon(Time expiry, int threads) {
  DaemonConfig config = test_config();
  config.repair_interval = 600.0;
  config.ewma_alpha = 0.5;
  config.rate_expiry = expiry;
  config.threads = threads;
  config.audit = true;  // every batch self-checks vs a reference rebuild
  auto d = std::make_unique<Daemon>(4, config);
  for (const ContactEvent& event : expiring_pair_events()) {
    d->ingest(event);
  }
  d->repair_now();
  return d;
}

TEST(DaemonExpiry, SilentPairEdgeIsRemovedAtRepair) {
  const auto d = expired_pair_daemon(1800.0, 1);
  const auto snap = d->snapshot();
  ASSERT_TRUE(snap->ready());
  // 0-1 last met at t=120; the watermark ended at 7200, silence 7080 far
  // beyond the 1800 s expiry: the edge must be gone from the graph, and
  // the audited repair already proved the tables match that graph.
  EXPECT_EQ(snap->graph.rate(0, 1), 0.0);
  // The pairs that kept meeting must still be present.
  EXPECT_GT(snap->graph.rate(2, 3), 0.0);
  EXPECT_GT(snap->graph.rate(1, 2), 0.0);
  EXPECT_GT(snap->graph.rate(0, 2), 0.0);
  // Node 0 stays reachable through the 0-2 edge, not through 0-1.
  EXPECT_GT(d->path_weight(0, 3, hours(1.0)).weight, 0.0);
}

TEST(DaemonExpiry, LegacyZeroExpiryKeepsSilentEdges) {
  const auto d = expired_pair_daemon(0.0, 1);
  const auto snap = d->snapshot();
  ASSERT_TRUE(snap->ready());
  EXPECT_GT(snap->graph.rate(0, 1), 0.0);  // persists forever without expiry
}

TEST(DaemonExpiry, RemovalIsDeterministicAcrossThreadCounts) {
  const auto serial = expired_pair_daemon(1800.0, 1);
  const auto parallel = expired_pair_daemon(1800.0, 4);
  const auto a = serial->snapshot();
  const auto b = parallel->snapshot();
  ASSERT_EQ(a->epoch, b->epoch);
  EXPECT_EQ(a->metric, b->metric);
  EXPECT_EQ(a->graph.edge_count(), b->graph.edge_count());
  for (NodeId r = 0; r < 4; ++r) {
    for (NodeId node = 0; node < 4; ++node) {
      EXPECT_EQ(a->tables[static_cast<std::size_t>(r)].weight(node),
                b->tables[static_cast<std::size_t>(r)].weight(node));
    }
  }
}

// ---- epochs, staleness, queries ----------------------------------------

TEST(Daemon, EpochZeroAnswersBeforeWarmStart) {
  const Daemon d(6, test_config());
  const auto snap = d.snapshot();
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_FALSE(snap->ready());
  EXPECT_TRUE(d.ncl_set(3).central.empty());
  EXPECT_EQ(d.path_weight(1, 2, 600.0).weight, 0.0);
  EXPECT_EQ(d.path_weight(2, 2, 600.0).weight, 1.0);  // self, always
  EXPECT_TRUE(d.placement_for(0, 2).ranked.empty());
}

TEST(Daemon, WarmStartPublishesEpochOneAndStampsAnswers) {
  const ContactTrace trace = small_trace(5);
  Daemon d(trace.node_count(), test_config());
  d.warm_start(trace);
  const daemon::NclAnswer answer = d.ncl_set(3);
  EXPECT_EQ(answer.info.epoch, 1u);
  EXPECT_EQ(answer.info.staleness, 0.0);  // nothing ingested past the scan
  EXPECT_EQ(answer.central.size(), 3u);
}

TEST(Daemon, StalenessTracksIngestAheadOfRepair) {
  const ContactTrace trace = small_trace(19);
  DaemonConfig config = test_config();
  config.repair_interval = kNever;  // manual batches only
  Daemon d(trace.node_count(), config);
  const std::size_t split = trace.size() / 2;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));
  const Time warm_end = d.watermark();

  for (std::size_t i = split; i < trace.size(); ++i) {
    d.ingest(trace.events()[i]);
  }
  const Time lag = d.ncl_set(1).info.staleness;
  EXPECT_DOUBLE_EQ(lag, trace.events().back().start - warm_end);
  d.repair_now();
  EXPECT_EQ(d.ncl_set(1).info.staleness, 0.0);
}

TEST(Daemon, QueriesMatchAllPairsSemantics) {
  const ContactTrace trace = small_trace(23);
  DaemonConfig config = test_config();
  Daemon d(trace.node_count(), config);
  d.warm_start(trace);
  const auto snap = d.snapshot();
  const AllPairsPaths paths(snap->graph, config.horizon, config.max_hops, 1);
  const NodeId n = trace.node_count();
  for (NodeId from = 0; from < n; ++from) {
    for (NodeId to = 0; to < n; ++to) {
      EXPECT_EQ(d.path_weight(from, to, hours(0.5)).weight,
                paths.weight_at(from, to, hours(0.5)))
          << from << "->" << to;
    }
  }
  // Placement = NCL set ranked by stored weight towards the source.
  const daemon::PlacementAnswer placement = d.placement_for(4, 3);
  ASSERT_EQ(placement.ranked.size(), 3u);
  for (std::size_t i = 1; i < placement.weights.size(); ++i) {
    EXPECT_GE(placement.weights[i - 1], placement.weights[i]);
  }
  for (std::size_t i = 0; i < placement.ranked.size(); ++i) {
    const NodeId c = placement.ranked[i];
    EXPECT_EQ(placement.weights[i],
              c == 4 ? 1.0
                     : snap->tables[static_cast<std::size_t>(c)].weight(4));
  }
}

// ---- script byte-identity ----------------------------------------------

/// Warm-starts on the first half of `trace`, then runs `script` with the
/// second half as the replay feed.
std::string run_scripted(const ContactTrace& trace, int threads,
                         const std::string& script) {
  DaemonConfig config = test_config();
  config.threads = threads;
  Daemon d(trace.node_count(), config);
  const std::size_t split = trace.size() / 2;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  std::vector<ContactEvent> live(trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split),
                                 trace.events().end());
  d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));
  ReplayFeed feed(live);
  std::ostringstream out;
  daemon::run_script(d, feed, script, out);
  return out.str();
}

TEST(DaemonScript, ByteIdenticalAcrossRunsAndThreadCounts) {
  const ContactTrace trace = small_trace(31);
  const std::string script =
      "# replayed-clock query mix\n"
      "ncl 4\n"
      "advance 90000\n"
      "repair\n"
      "ncl 4\nweight 0 7 1800\nplace 3 4\n"
      "drain\nrepair\n"
      "ncl 4\nweight 0 7 1800\nweight 2 2 1\nplace 3 4\nstats\n";
  const std::string serial = run_scripted(trace, 1, script);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(run_scripted(trace, 1, script), serial);  // same run, same bytes
  EXPECT_EQ(run_scripted(trace, 0, script), serial);  // all cores
  EXPECT_EQ(run_scripted(trace, 3, script), serial);  // odd pool size
}

// The text itself: every query line carries "@<epoch> lag=<%.17g>", and
// weights print in %.17g. The test above only compares runs with each
// other, so a change of format would pass it.
TEST(DaemonScript, QueryLinesPinTheirExactBytes) {
  EXPECT_EQ(run_scripted(small_trace(41, 6, 1.0), 1,
                         "ncl 2\nweight 0 1 1800\nadvance 60000\n"
                         "weight 2 2 1\nplace 3 2\n"),
            "ncl 2 @1 lag=0 : 3 0\n"
            "weight 0 1 1800 @1 lag=0 : 0.84199647265012545\n"
            "advance 60000 -> ingested 290 t=59743.631613304242\n"
            "weight 2 2 1 @3 lag=1861.107482306601 : 1\n"
            "place 3 2 @3 lag=1861.107482306601 : 3:1 4:0.99996637861965898\n");
}

TEST(DaemonScript, MalformedCommandThrowsWithLineNumber) {
  const ContactTrace trace = small_trace(37, 8, 1.0);
  // An unknown command, and node ids outside [0, 8) that would otherwise
  // reach the daemon's range contracts.
  for (const char* bad : {"bogus 1 2", "weight 0 99 3600", "place -1 2"}) {
    SCOPED_TRACE(bad);
    Daemon d(trace.node_count(), test_config());
    ReplayFeed feed(trace.events());
    std::ostringstream out;
    try {
      daemon::run_script(d, feed, "ncl 2\n" + std::string(bad) + "\n", out);
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("script line 2"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(ReplayFeed, AdvanceBoundaryIsExclusiveAndPushbackHolds) {
  std::vector<ContactEvent> events;
  events.push_back({100.0, 10.0, 0, 1});
  events.push_back({200.0, 10.0, 1, 2});
  events.push_back({200.0, 10.0, 0, 2});  // duplicate timestamp
  events.push_back({300.0, 10.0, 2, 3});
  Daemon d(4, test_config());
  ReplayFeed feed(events);
  EXPECT_EQ(feed.advance_until(d, 100.0), 0u);  // strict: start < limit
  EXPECT_EQ(feed.advance_until(d, 200.0), 1u);
  EXPECT_EQ(feed.advance_until(d, 201.0), 2u);  // both duplicates
  EXPECT_FALSE(feed.exhausted());               // 300 held for the next call
  EXPECT_EQ(feed.drain(d), 1u);
  EXPECT_TRUE(feed.exhausted());
  EXPECT_EQ(d.stats().contacts_ingested, 4u);
}

// ---- concurrent readers (the TSan contract) ----------------------------

/// Four reader threads query while the writer replays the last three
/// quarters of the trace with repair at `threads`; the replay starts once
/// each reader has answered.
void expect_queries_race_free(int threads) {
  const ContactTrace trace = small_trace(43, 16, 2.0);
  DaemonConfig config = test_config();
  config.repair_interval = hours(1.0);  // many publishes during the replay
  config.threads = threads;
  Daemon d(trace.node_count(), config);
  const std::size_t split = trace.size() / 4;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  // Every reader answers one round before the replay starts, so the
  // replay races live readers on any host, however fast it runs.
  std::latch answered(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      std::uint64_t count = 0;
      const NodeId n = trace.node_count();
      do {
        const NodeId src = static_cast<NodeId>(
            (static_cast<std::uint64_t>(t) + count) %
            static_cast<std::uint64_t>(n));
        const daemon::NclAnswer ncl = d.ncl_set(3);
        const daemon::WeightAnswer w =
            d.path_weight(src, (src + 1) % n, hours(0.5));
        const daemon::PlacementAnswer p = d.placement_for(src, 2);
        // Epochs only move forward, and every answer is internally
        // consistent (a torn snapshot would trip the DTN_CHECKs inside
        // the query path long before this).
        EXPECT_GE(ncl.info.epoch, last_epoch);
        last_epoch = ncl.info.epoch;
        EXPECT_GE(w.weight, 0.0);
        EXPECT_LE(w.weight, 1.0);
        EXPECT_LE(p.ranked.size(), 2u);
        if (++count == 1) answered.count_down();
      } while (!stop.load(std::memory_order_acquire));
      queries.fetch_add(count, std::memory_order_relaxed);
    });
  }

  answered.wait();
  for (std::size_t i = split; i < trace.size(); ++i) {
    d.ingest(trace.events()[i]);
  }
  d.repair_now();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(queries.load(), 0u) << "threads " << threads;
  EXPECT_GT(d.snapshot()->epoch, 1u);  // the replay actually published
}

TEST(DaemonConcurrency, QueriesRaceFreeAgainstIngestAndRepair) {
  expect_queries_race_free(1);  // serial repair on the writer thread
  expect_queries_race_free(0);  // repair on the global pool
}

}  // namespace
}  // namespace dtn
