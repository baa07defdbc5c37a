// dtnd core: a long-running serving daemon over a live contact stream.
//
// Everything else in this tree is batch: load a trace, build all-pairs
// Eq. 3 tables once, run, exit. The Daemon has a *lifetime*: it ingests
// contacts one at a time (dtnd replays them from a ReplayFeed, script.h),
// maintains per-pair meeting-rate estimates online (EwmaRateEstimator),
// and keeps the path tables continuously correct through **incremental
// repair**: when an edge's estimated rate drifts past a configurable
// relative threshold, only the roots that edge can reach are repaired
// (the subtrees the change reaches re-settled, or the root re-run through
// single-root Dijkstra), instead of rebuilding all pairs.
//
// A batch is one pass over the roots on the global thread pool (by
// default), and resettle_subtrees alone decides what each root repairs
// (DESIGN.md §13 has the argument). The set D it re-settles starts at the
// child end of every changed tree edge, and at the end of any other
// changed edge that the other end's old chain now offers at least its
// weight (the first adoption of an edge extends a chain that avoids it).
// An empty D means no change reaches the root, which keeps its table
// object. Otherwise D, grown by the kept subtrees its offers reach, is
// re-settled into the kernel's table, or the re-settle declines and the
// root re-runs the single-root kernel a full rebuild would run; either way
// the task folds the root's Eq. 3 metric. The tables are bit-identical to
// a rebuild for every thread count; with `audit` on, every batch is
// DTN_CHECKed field for field against a fresh per-root
// compute_opportunistic_paths_reference build.
//
// Concurrency: ONE writer thread calls warm_start/ingest/repair_now; any
// number of reader threads call snapshot()/ncl_set()/path_weight()/
// placement_for() concurrently. Readers never block the update path —
// queries run against an immutable Snapshot behind a shared_ptr that the
// writer swaps under a short mutex (double-buffer publish; the mutex
// guards only the pointer swap, and the old snapshot is released after
// it). A snapshot shares each root's table with the writer until a repair
// replaces it, so a publish copies pointers, not tables. Every answer
// carries the epoch it was computed at plus its staleness: the trace-time
// lag between the latest ingested contact and the last drift reconcile.
// The dtnlint rule `daemon-snapshot-guard` statically enforces that
// `shared_`-prefixed daemon state is only touched under a guard or through
// atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "daemon/rate_estimator.h"
#include "graph/contact_graph.h"
#include "graph/opportunistic_path.h"
#include "trace/contact_event.h"
#include "trace/trace.h"

namespace dtn::daemon {

struct DaemonConfig {
  /// Path-weight horizon T (Eq. 2/3) the tables are built at.
  Time horizon = hours(1.0);
  int max_hops = 8;

  /// EWMA inter-contact estimator weight (rate_estimator.h).
  double ewma_alpha = 0.125;

  /// Estimator expiry (seconds of stream time): pairs silent for longer
  /// than this decay towards — and at the expiry, to — rate 0, and their
  /// graph edges are removed at the next repair batch. 0 keeps the legacy
  /// persist-forever estimates (bit-identical to pre-expiry builds).
  Time rate_expiry = 0.0;

  /// Relative rate drift |est - current| / current that marks an edge
  /// stale. Smaller = tighter tables, more repair work.
  double drift_threshold = 0.2;

  /// Trace-time batch boundary: drifted edges are reconciled (and a new
  /// snapshot published if anything changed) every `repair_interval`
  /// seconds of stream time.
  Time repair_interval = hours(1.0);

  /// Parallelism of warm start and repair (0 = all cores, 1 = serial).
  /// Repaired tables are written into per-root slots, so results are
  /// bit-identical for every value — the daemon_test determinism suite
  /// pins this.
  int threads = 0;

  /// Audit mode: after every repair batch, build every root afresh with
  /// compute_opportunistic_paths_reference and DTN_CHECK equality of every
  /// entry field (weight, last_rate, next_hop, hops), the NCL metric and
  /// the top-5 NCL set.
  bool audit = false;
};

/// One immutable path table per root. Each table is shared by the writer
/// and every snapshot until a repair replaces it.
class SharedTables {
 public:
  SharedTables() = default;
  explicit SharedTables(std::vector<std::shared_ptr<const PathTable>> tables)
      : tables_(std::move(tables)) {}

  std::size_t size() const { return tables_.size(); }
  bool empty() const { return tables_.empty(); }
  const PathTable& operator[](std::size_t root) const {
    return *tables_[root];
  }

 private:
  std::vector<std::shared_ptr<const PathTable>> tables_;
};

/// Immutable published state. Readers hold it via shared_ptr; the writer
/// never mutates a published snapshot.
struct Snapshot {
  std::uint64_t epoch = 0;       ///< 0 = empty pre-warm-start snapshot
  ContactGraph graph;            ///< thresholded working graph
  SharedTables tables;           ///< one per root; empty at epoch 0
  std::vector<double> metric;    ///< Eq. 3 NCL metric per node

  bool ready() const { return !tables.empty(); }
};

/// Epoch + staleness stamp attached to every answer.
struct QueryInfo {
  std::uint64_t epoch = 0;
  /// Trace-time lag between the newest ingested contact and the last
  /// drift reconcile: how much stream the answer has not seen.
  Time staleness = 0.0;
};

struct NclAnswer {
  QueryInfo info;
  std::vector<NodeId> central;  ///< metric-descending, id tie-break
};

struct WeightAnswer {
  QueryInfo info;
  double weight = 0.0;  ///< opportunistic path weight at the query budget
};

struct PlacementAnswer {
  QueryInfo info;
  /// Caching locations for content originating at `source`: the current
  /// NCL set ranked by path weight from the source (best first).
  std::vector<NodeId> ranked;
  std::vector<double> weights;  ///< parallel to `ranked`
};

class Daemon {
 public:
  Daemon(NodeId node_count, DaemonConfig config);

  const DaemonConfig& config() const { return config_; }
  NodeId node_count() const { return estimator_.node_count(); }

  // ---- writer API (single ingest thread) -------------------------------

  /// Batch warm start: folds the whole trace into the estimator, builds
  /// the initial graph and full all-pairs tables, publishes epoch 1.
  void warm_start(const ContactTrace& trace);

  /// Feeds one contact. Contacts must arrive in non-decreasing start
  /// order; crossing a repair_interval boundary triggers a repair batch
  /// before the event is folded in.
  void ingest(const ContactEvent& event);

  /// Forces a repair batch at the current watermark.
  void repair_now();

  /// Stream time of the newest ingested contact (writer-thread accessor;
  /// readers stamp answers through QueryInfo instead).
  Time watermark() const { return watermark_; }

  /// Writer-side counters for reporting (not thread-safe to read while
  /// ingesting from another thread; the query path never touches them).
  struct Stats {
    std::uint64_t contacts_ingested = 0;
    std::uint64_t repair_batches = 0;
    std::uint64_t edge_updates = 0;
    std::uint64_t roots_repaired = 0;
    /// Repaired roots that re-settled only subtrees, and the nodes those
    /// subtrees held (both included in roots_repaired's work).
    std::uint64_t roots_local = 0;
    std::uint64_t nodes_resettled = 0;
    /// The roots_local whose re-settle grew D over a kept node that an
    /// offer from D reached.
    std::uint64_t roots_grown = 0;
    std::uint64_t full_rebuilds = 0;   ///< warm start + first-build batches
    std::uint64_t audit_rebuilds = 0;
    std::uint64_t snapshots_published = 0;
  };
  const Stats& stats() const { return stats_; }

  // ---- reader API (any thread) -----------------------------------------

  /// Current published snapshot (never null; epoch 0 before warm start).
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Top-k central nodes by the Eq. 3 metric of the current snapshot.
  NclAnswer ncl_set(int k) const;

  /// Opportunistic path weight src -> dst re-evaluated at `budget`
  /// (PathTable::weight_at on dst's table). 1 when src == dst; 0 when
  /// unreachable or before the first publish.
  WeightAnswer path_weight(NodeId src, NodeId dst, Time budget) const;

  /// Cache placement for content originating at `source`: the top-k NCL
  /// set ranked by path weight from the source.
  PlacementAnswer placement_for(NodeId source, int k) const;

 private:
  struct EdgeChange {
    NodeId u = kNoNode;
    NodeId v = kNoNode;
    double old_rate = 0.0;
    double new_rate = 0.0;
  };

  void publish(std::shared_ptr<const Snapshot> next);
  void publish_snapshot(Time batch_time);
  QueryInfo query_info(const Snapshot& snap) const;

  /// Drift scan -> one pass over the roots (repair what the changes
  /// reach, fold the metric) -> publish.
  void repair(Time batch_time);
  std::vector<EdgeChange> collect_drifted_edges();
  void full_build(Time batch_time);
  void audit_against_reference();

  DaemonConfig config_;
  EwmaRateEstimator estimator_;

  // Writer-owned master state; a Snapshot copies the graph and the metric,
  // and shares the tables.
  ContactGraph graph_;
  EdgeExpTable edge_exp_;  ///< graph_'s edge terms at config_.horizon
  std::vector<std::shared_ptr<const PathTable>> tables_;
  std::vector<double> metric_;

  std::vector<std::uint8_t> dirty_flags_;   ///< per pair index
  std::vector<std::size_t> dirty_pairs_;    ///< insertion order; sorted at scan
  Time watermark_ = 0.0;                    ///< newest ingested start time
  Time batch_deadline_ = kNever;            ///< next repair boundary
  bool saw_contact_ = false;
  std::uint64_t epoch_ = 0;
  Stats stats_;

  // Reader-visible shared state: the published snapshot pointer under a
  // short mutex, and two atomic stream clocks for staleness stamping.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> shared_snapshot_;
  std::atomic<Time> shared_ingest_clock_{0.0};
  std::atomic<Time> shared_scan_clock_{0.0};
};

}  // namespace dtn::daemon
