// The discrete-event simulation engine.
//
// Drives schemes over the merged timeline of trace contacts and workload
// events. Contact rates are estimated online from the very beginning of the
// trace (warm-up included); at every maintenance tick the engine refreshes
// the all-pairs opportunistic path tables from the current estimates and
// samples the caching-overhead metric.
//
// The tables depend only on the contacts, the failure injection and the
// tick grid, never on the scheme. So a run is organised in lanes (one per
// repetition): a lane walks the trace's sorted contact vector by index and
// builds each tick's tables once, and every scheme of the lane receives the
// same immutable table. A lane queues the events its schemes must see up to
// the next tick, where it snapshots the rate estimates. Each round then runs
// one thread-pool batch: every (lane, scheme) cell replays its lane's queue
// as one task, and every root of every lane's next table is another. The
// next queue opens with that tick and its finished table. A cell sees
// exactly the hook sequence of a one-scheme run (DESIGN.md §12). The final
// sampling (on_end) happens at the latest contact end, or at the first
// workload event if that is later.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/ncl.h"
#include "sim/metrics.h"
#include "sim/scheme.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace dtn {

/// Scheme-implementation engine for the simulator hot loop. kFast runs the
/// SoA NclCachingScheme (per-node bundle queues compacted in place, byte
/// accounts, re-linked map nodes, reusable per-contact workspaces);
/// kReference runs the legacy per-object implementation preserved verbatim
/// as NclCachingSchemeReference.
/// The two are bit-identical — same protocol decisions, same RNG stream,
/// same metrics (tests/engine_golden_test.cpp pins this across all four
/// traces and five schemes) — so this knob exists only for golden
/// comparisons and bench denominators. The four baseline schemes have a
/// single implementation and ignore the switch.
enum class SimEngine { kFast, kReference };

struct SimConfig {
  /// Link bandwidth during contacts (paper: Bluetooth EDR 2.1 Mb/s).
  Bytes bandwidth_per_second = megabits(2.1);

  /// Time budget T used for opportunistic path weights (trace-specific;
  /// the paper uses 1 h for Infocom, 1 week for MIT Reality, 3 d for UCSD).
  Time path_horizon = hours(1);

  /// Maximum hops considered for opportunistic paths.
  int max_hops = 8;

  /// Interval between maintenance ticks (path refresh + metric sampling).
  /// Must be > 0.
  Time maintenance_interval = hours(6);

  /// Pairs seen fewer than this many times are excluded from the graph.
  std::size_t min_contacts_for_rate = 2;

  /// Exponential decay constant for rate estimation; 0 uses the paper's
  /// cumulative time-average. A decay of, say, a week makes the estimated
  /// graph forget nodes that churn or fail (pairs RateEstimator).
  Time rate_decay = 0.0;

  /// Seed for the scheme-visible RNG stream (workload has its own seed).
  /// The multi-lane run_simulation takes each lane's seed instead.
  std::uint64_t seed = 7;

  /// Thread count for the embarrassingly parallel substrate work (per-root
  /// path tables at maintenance ticks, NCL metric computation, the
  /// (lane, scheme) cell replays). 0 = hardware_concurrency, 1 = fully
  /// serial. Results are bit-identical for every value; this is purely a
  /// resource knob.
  int threads = 0;

  /// Scheme-implementation engine (see SimEngine above). Dispatch happens
  /// where schemes are constructed (experiment/experiment.cpp make_scheme);
  /// the event loop itself is shared.
  SimEngine sim_engine = SimEngine::kFast;

  /// Kept only because perfbench/harness.cpp passes both to select_ncls,
  /// which ignores them.
  MetricEngine metric_engine = MetricEngine::kFast;
  SparseMetricConfig sparse_metric;

  // ---- failure injection ----

  /// Each contact is independently missed (failed discovery, interference)
  /// with this probability. Missed contacts are invisible to the rate
  /// estimator too — the devices never saw each other.
  double contact_miss_prob = 0.0;

  /// Intervals during which a node is down (battery out, device off).
  /// Contacts involving a down node are skipped entirely.
  struct Downtime {
    NodeId node = kNoNode;
    Time from = 0.0;
    Time to = 0.0;
  };
  std::vector<Downtime> node_downtime;
};

struct RunResult {
  MetricsCollector metrics;
  std::size_t contacts_processed = 0;
  std::size_t maintenance_ticks = 0;
};

/// Runs `scheme` over the trace and workload. The workload's events define
/// the data-access phase; trace contacts before the first workload event
/// only feed the rate estimator (warm-up).
RunResult run_simulation(const ContactTrace& trace, const Workload& workload,
                         Scheme& scheme, const SimConfig& config);

/// One repetition of a multi-scheme run: every scheme in `schemes` sees
/// `workload` on the same contact stream, the same failure injection and
/// the same per-tick path tables. `seed` replaces SimConfig::seed for the
/// lane (failure stream and each scheme's RNG stream). Scheme instances
/// must be distinct across all lanes.
struct SimLane {
  const Workload* workload = nullptr;
  std::vector<Scheme*> schemes;
  std::uint64_t seed = 0;
};

/// Runs every lane over the trace. results[l][i] is bit-identical to the
/// one-scheme run of lanes[l].schemes[i] with config.seed = lanes[l].seed,
/// for every thread count (config.threads sizes the batches that run the
/// cell replays beside the per-root table builds).
std::vector<std::vector<RunResult>> run_simulation(
    const ContactTrace& trace, const std::vector<SimLane>& lanes,
    const SimConfig& config);

}  // namespace dtn
