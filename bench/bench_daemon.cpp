// Serving-daemon bench (src/daemon/, DESIGN.md §13): the same contact
// replay processed two ways — the daemon's incremental path-table repair
// (drift scan -> per root, re-settle the subtrees the changed edges reach,
// or re-run the root when the re-settle declines, or keep its table when
// no change reaches it)
// and a rebuild-everything strawman that answers every batch boundary with
// a fresh full AllPairsPaths build from the same estimator. The work unit
// is contacts ingested; both sides run serial repair (threads=1) so the
// ratio measures the algorithm, not the pool.
//
// The acceptance contract for the daemon is a >= 3x ingest+repair speedup
// over the strawman in the converged-serving regime (most of the stream
// already folded in, rates piecewise stable, drift rare); pass
// `--min-speedup X` to enforce that ratio as the exit status — CI's
// bench-smoke job, the nightly run and tools/verify.sh --stage bench do.
// The `--json` artifact is gated by tools/bench_compare.py against
// bench/baselines/bench_daemon.json.
//
// Also reported: steady-state queries/sec against the final snapshot
// (ncl/weight/placement mix) and the p99 per-batch repair latency of both
// sides — the daemon's serving staleness is bounded by how long a batch
// blocks the writer, so p99 batch latency IS the p99 answer-staleness
// floor a reader can observe in wall time.
//
// Before any timed stage, a small replay cross-checks the machinery: a
// daemon run at a near-zero drift threshold must finish with the exact
// NCL metric vector of the strawman (both reconcile every estimator
// change), refusing to report a speedup for diverged implementations.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/instrument.h"
#include "common/stats.h"
#include "daemon/daemon.h"
#include "daemon/rate_estimator.h"
#include "graph/all_pairs.h"
#include "graph/ncl.h"
#include "trace/synthetic.h"

using namespace dtn;

namespace {

volatile double g_sink = 0.0;

/// The serving config both sides share: a converged estimator and a drift
/// threshold above the EWMA's stationary noise floor, so batches reconcile
/// genuine drift instead of chasing Poisson jitter. Stationary exponential
/// gaps have CV = 1, and an EWMA with weight a has stationary relative
/// std sqrt(a / (2 - a)) — alpha 0.02 puts the noise floor near 10%, so a
/// 0.35 threshold is a >= 3.5-sigma event per pair per batch.
daemon::DaemonConfig serving_config() {
  daemon::DaemonConfig config;
  config.horizon = hours(1.0);
  config.ewma_alpha = 0.02;
  config.drift_threshold = 0.35;
  config.repair_interval = kNever;  // batches are driven by the bench loop
  config.threads = 1;
  return config;
}

/// Rebuild-everything baseline: identical estimator, identical batch
/// cadence, but every batch re-materializes the full graph and rebuilds
/// every root with the production engine.
struct Strawman {
  daemon::EwmaRateEstimator estimator;
  ContactGraph graph;
  AllPairsPaths paths;
  std::vector<double> metric;

  Strawman(NodeId nodes, const daemon::DaemonConfig& config)
      : estimator(nodes, config.ewma_alpha), graph(nodes) {}

  void ingest(const ContactEvent& event) {
    estimator.record(event.a, event.b, event.start);
    DTN_COUNT(kDaemonContactsIngested);
  }

  void rebuild(const daemon::DaemonConfig& config) {
    const NodeId n = estimator.node_count();
    ContactGraph fresh(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        const double est = estimator.rate(a, b);
        if (est > 0.0) fresh.set_rate(a, b, est);
      }
    }
    graph = std::move(fresh);
    paths = AllPairsPaths(graph, config.horizon, config.max_hops,
                          config.threads);
    metric.assign(static_cast<std::size_t>(n), 0.0);
    for (NodeId r = 0; r < n; ++r) {
      metric[static_cast<std::size_t>(r)] = ncl_metric(paths.table(r));
    }
  }
};

struct ReplayResult {
  std::vector<double> batch_latency_ns;
  std::size_t batches = 0;
};

/// Replays `live` with a repair batch every `interval` of stream time,
/// timing each batch. `repair` is either Daemon::repair_now or
/// Strawman::rebuild.
template <typename IngestFn, typename RepairFn>
ReplayResult replay(const std::vector<ContactEvent>& live, Time interval,
                    IngestFn&& ingest, RepairFn&& repair) {
  ReplayResult result;
  const auto timed_repair = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    repair();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    result.batch_latency_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    ++result.batches;
  };
  Time deadline = live.empty() ? 0.0 : live.front().start + interval;
  for (const ContactEvent& event : live) {
    if (event.start >= deadline) {
      timed_repair();
      deadline = event.start + interval;
    }
    ingest(event);
  }
  timed_repair();
  return result;
}

ContactTrace make_trace(NodeId nodes, double trace_days,
                        std::uint64_t seed) {
  SyntheticTraceConfig tc;
  tc.node_count = nodes;
  tc.duration = days(trace_days);
  tc.target_total_contacts = static_cast<double>(nodes) * 450.0;
  // The converged regime incremental repair targets: a restricted pair set
  // with many contacts per pair, so warm start leaves every estimate well
  // past its noise floor. (A trace where most pairs meet a handful of
  // times has no stable rates to serve — rebuild-per-batch is the right
  // tool there, and this bench does not claim that regime.) Near-flat
  // popularity keeps single edges out of most trees, so one drifted edge
  // stays local instead of invalidating every root.
  tc.pair_fraction = 0.2;
  tc.popularity_shape = 12.0;
  tc.seed = seed;
  return generate_trace(tc);
}

/// Refusal check: with an (effectively) zero drift threshold the daemon
/// reconciles every estimator change, so its final metric vector must be
/// bit-identical to the strawman's final full rebuild.
bool equivalence_check() {
  const ContactTrace trace = make_trace(28, 2.0, 93);
  const std::size_t split = trace.size() / 2;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  const std::vector<ContactEvent> live(trace.events().begin() +
                                           static_cast<std::ptrdiff_t>(split),
                                       trace.events().end());

  daemon::DaemonConfig config = serving_config();
  config.drift_threshold = 1e-12;
  daemon::Daemon d(trace.node_count(), config);
  d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));
  Strawman s(trace.node_count(), config);
  for (const ContactEvent& event : warm) s.ingest(event);
  s.rebuild(config);

  const Time interval = hours(3.0);
  replay(
      live, interval, [&](const ContactEvent& e) { d.ingest(e); },
      [&] { d.repair_now(); });
  replay(
      live, interval, [&](const ContactEvent& e) { s.ingest(e); },
      [&] { s.rebuild(config); });

  const auto snap = d.snapshot();
  if (snap->metric != s.metric) {
    std::fprintf(stderr,
                 "FAIL: zero-drift daemon diverged from full rebuild\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const double min_speedup = bench::take_min_speedup(argc, argv);
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("serving daemon: incremental repair vs full rebuild");
  bench::JsonReport report("bench_daemon", args);

  if (!equivalence_check()) return 1;

  const NodeId nodes = args.fast ? 48 : 96;
  const double trace_days = args.days > 0 ? args.days : 6.0;
  const ContactTrace trace = make_trace(nodes, trace_days, 41);

  // Converged-serving regime: 70% of the stream warm-starts the
  // estimator, the remaining 30% replays live with a 2h batch cadence.
  const std::size_t split = trace.size() * 7 / 10;
  const std::vector<ContactEvent> warm(trace.events().begin(),
                                       trace.events().begin() +
                                           static_cast<std::ptrdiff_t>(split));
  const std::vector<ContactEvent> live(trace.events().begin() +
                                           static_cast<std::ptrdiff_t>(split),
                                       trace.events().end());
  const Time interval = hours(2.0);
  const daemon::DaemonConfig config = serving_config();

  std::printf("trace: %d nodes, %zu contacts (%zu warm / %zu live)\n",
              trace.node_count(), trace.size(), warm.size(), live.size());

  ReplayResult daemon_replay;
  daemon::Daemon::Stats last_stats;
  std::uint64_t final_epoch = 0;
  report.stage(
      "daemon_ingest",
      [&] {
        daemon::Daemon d(trace.node_count(), config);
        d.warm_start(ContactTrace(trace.node_count(), warm, "warm"));
        daemon_replay = replay(
            live, interval, [&](const ContactEvent& e) { d.ingest(e); },
            [&] { d.repair_now(); });
        last_stats = d.stats();
        final_epoch = d.snapshot()->epoch;
        g_sink = d.snapshot()->metric.empty() ? 0.0 : d.snapshot()->metric[0];
      },
      "daemon_contacts_ingested");

  ReplayResult strawman_replay;
  report.stage(
      "strawman_ingest",
      [&] {
        Strawman s(trace.node_count(), config);
        for (const ContactEvent& event : warm) s.ingest(event);
        s.rebuild(config);
        strawman_replay = replay(
            live, interval, [&](const ContactEvent& e) { s.ingest(e); },
            [&] { s.rebuild(config); });
        g_sink = s.metric.empty() ? 0.0 : s.metric[0];
      },
      "daemon_contacts_ingested");

  // Steady-state query throughput against the final snapshot: the
  // ncl/weight/placement mix a serving deployment answers.
  daemon::Daemon served(trace.node_count(), config);
  served.warm_start(trace);
  const std::size_t query_rounds = args.fast ? 2000 : 8000;
  report.stage(
      "daemon_queries",
      [&] {
        double acc = 0.0;
        const NodeId n = served.node_count();
        for (std::size_t q = 0; q < query_rounds; ++q) {
          const NodeId src = static_cast<NodeId>(q % static_cast<std::size_t>(n));
          const NodeId dst =
              static_cast<NodeId>((q * 7 + 3) % static_cast<std::size_t>(n));
          acc += served.path_weight(src, dst, hours(0.5)).weight;
          acc += static_cast<double>(served.ncl_set(5).central.size());
          acc += static_cast<double>(served.placement_for(src, 3).ranked.size());
        }
        g_sink = acc;
      },
      "daemon_queries");

  double daemon_ns = 0.0;
  double strawman_ns = 0.0;
  double queries_ns = 0.0;
  for (const auto& stage : report.stages()) {
    if (stage.name == "daemon_ingest") {
      daemon_ns = static_cast<double>(stage.median_ns);
    }
    if (stage.name == "strawman_ingest") {
      strawman_ns = static_cast<double>(stage.median_ns);
    }
    if (stage.name == "daemon_queries") {
      queries_ns = static_cast<double>(stage.median_ns);
    }
  }
  const double speedup = daemon_ns > 0.0 ? strawman_ns / daemon_ns : 0.0;
  const double qps = queries_ns > 0.0
                         ? static_cast<double>(query_rounds) * 3.0 * 1e9 /
                               queries_ns
                         : 0.0;

  std::printf("%-18s %6s %14s %14s %18s\n", "stage", "reps", "median_ms",
              "p90_ms", "ns_per_unit");
  for (const auto& s : report.stages()) {
    std::printf("%-18s %6d %14.3f %14.3f %18.2f\n", s.name.c_str(), s.reps,
                static_cast<double>(s.median_ns) / 1e6,
                static_cast<double>(s.p90_ns) / 1e6,
                static_cast<double>(s.median_ns) / s.work_units_per_rep);
  }
  std::printf(
      "daemon: %zu batches, %llu edge updates, %llu roots repaired "
      "(of %zu x %d possible), final epoch %llu\n",
      daemon_replay.batches,
      static_cast<unsigned long long>(last_stats.edge_updates),
      static_cast<unsigned long long>(last_stats.roots_repaired),
      daemon_replay.batches, trace.node_count(),
      static_cast<unsigned long long>(final_epoch));
  std::printf("p99 batch latency: daemon %.3f ms, strawman %.3f ms\n",
              percentile(daemon_replay.batch_latency_ns, 0.99) / 1e6,
              percentile(strawman_replay.batch_latency_ns, 0.99) / 1e6);
  std::printf("steady-state queries/sec: %.0f\n", qps);
  std::printf("ingest+repair speedup (strawman / daemon): %.2fx\n", speedup);

  if (!report.write_if_requested()) return 1;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: daemon speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
