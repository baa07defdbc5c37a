#include "daemon/daemon.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/instrument.h"
#include "common/pairs.h"
#include "common/parallel.h"
#include "graph/ncl.h"

namespace dtn::daemon {
namespace {

/// NCL-set size at which --audit compares the repaired and reference
/// selections.
constexpr std::size_t kAuditNclK = 5;

}  // namespace

Daemon::Daemon(NodeId node_count, DaemonConfig config)
    : config_(config),
      estimator_(node_count, config.ewma_alpha, config.rate_expiry),
      graph_(node_count) {
  if (!(config.horizon > 0.0)) {
    throw std::invalid_argument("horizon must be > 0");
  }
  if (config.max_hops < 1) {
    throw std::invalid_argument("max_hops must be >= 1");
  }
  if (!(config.drift_threshold > 0.0)) {
    throw std::invalid_argument("drift_threshold must be > 0");
  }
  if (!(config.repair_interval > 0.0)) {
    throw std::invalid_argument("repair_interval must be > 0");
  }
  if (config.threads < 0) {
    throw std::invalid_argument("threads must be >= 0");
  }
  dirty_flags_.assign(pair_count(node_count), 0);
  // Epoch-0 snapshot: queries are answerable (as "nothing known yet")
  // from the first instant of the daemon's life.
  auto initial = std::make_shared<Snapshot>();
  initial->graph = graph_;
  publish(std::move(initial));
}

// ---- shared-state accessors (the only places shared_ members appear) ----

std::shared_ptr<const Snapshot> Daemon::snapshot() const {
  const std::lock_guard<std::mutex> guard(snapshot_mu_);
  return shared_snapshot_;
}

void Daemon::publish(std::shared_ptr<const Snapshot> next) {
  {
    const std::lock_guard<std::mutex> guard(snapshot_mu_);
    shared_snapshot_.swap(next);
  }
  // `next` now holds the previous snapshot. Unless a reader still holds
  // it, dropping it here frees its graph and the tables no newer snapshot
  // shares, after the unlock, so no reader waits on that.
}

QueryInfo Daemon::query_info(const Snapshot& snap) const {
  QueryInfo info;
  info.epoch = snap.epoch;
  const Time ingested = shared_ingest_clock_.load(std::memory_order_acquire);
  const Time scanned = shared_scan_clock_.load(std::memory_order_acquire);
  info.staleness = std::max(0.0, ingested - scanned);
  return info;
}

// ---- writer path -------------------------------------------------------

void Daemon::warm_start(const ContactTrace& trace) {
  estimator_.warm_start(trace);
  stats_.contacts_ingested += trace.events().size();
  DTN_COUNT_N(kDaemonContactsIngested, trace.events().size());
  if (!trace.events().empty()) {
    const Time end = trace.events().back().start;
    DTN_CHECK(!saw_contact_ || end >= watermark_,
              "warm start behind the live watermark");
    watermark_ = end;
    saw_contact_ = true;
    batch_deadline_ = watermark_ + config_.repair_interval;
    shared_ingest_clock_.store(watermark_, std::memory_order_release);
  }
  full_build(watermark_);
}

void Daemon::ingest(const ContactEvent& event) {
  DTN_CHECK(!saw_contact_ || event.start >= watermark_,
            "contacts must arrive in non-decreasing start order");
  if (!saw_contact_) {
    batch_deadline_ = event.start + config_.repair_interval;
    saw_contact_ = true;
  } else if (event.start >= batch_deadline_) {
    // Reconcile the interval that just closed before folding the new
    // contact in, so a batch covers exactly [deadline - interval, deadline).
    repair(watermark_);
    batch_deadline_ = event.start + config_.repair_interval;
  }
  const std::size_t pair = estimator_.record(event.a, event.b, event.start);
  if (!dirty_flags_[pair]) {
    dirty_flags_[pair] = 1;
    dirty_pairs_.push_back(pair);
  }
  watermark_ = event.start;
  shared_ingest_clock_.store(watermark_, std::memory_order_release);
  ++stats_.contacts_ingested;
  DTN_COUNT(kDaemonContactsIngested);
}

void Daemon::repair_now() { repair(watermark_); }

std::vector<Daemon::EdgeChange> Daemon::collect_drifted_edges() {
  std::vector<EdgeChange> changes;
  // Canonical ascending pair order: the batch's edge-update sequence (and
  // therefore everything downstream) is independent of contact arrival
  // interleaving within the interval.
  std::sort(dirty_pairs_.begin(), dirty_pairs_.end());
  for (const std::size_t pair : dirty_pairs_) {
    dirty_flags_[pair] = 0;
    const double est = estimator_.rate_by_index(pair);
    EdgeChange change;
    estimator_.pair_nodes(pair, change.u, change.v);
    change.old_rate = graph_.rate(change.u, change.v);
    change.new_rate = est;
    if (est <= 0.0) {
      // Below the observation floor (no edge yet) — or, with expiry on, an
      // edge whose estimate just expired: the latter must become a removal.
      if (change.old_rate <= 0.0) continue;
      changes.push_back(change);
      continue;
    }
    if (change.old_rate > 0.0) {
      const double rel = std::abs(est - change.old_rate) / change.old_rate;
      if (rel <= config_.drift_threshold) continue;  // within tolerance
    }
    changes.push_back(change);
  }
  dirty_pairs_.clear();

  if (estimator_.expiry() > 0.0) {
    // Expired pairs usually stop producing contacts, so they never turn
    // dirty: sweep the graph's existing edges for estimates that decayed to
    // 0 behind our back. Candidates are gathered per edge and then sorted
    // into canonical pair order, keeping the change list independent of
    // adjacency-list ordering.
    std::vector<std::size_t> expired;
    const NodeId n = graph_.node_count();
    for (NodeId a = 0; a < n; ++a) {
      for (const auto& nb : graph_.neighbors(a)) {
        if (nb.node <= a) continue;  // visit each undirected edge once
        if (estimator_.rate(a, nb.node) > 0.0) continue;
        expired.push_back(estimator_.pair_index(a, nb.node));
      }
    }
    std::sort(expired.begin(), expired.end());
    // The dirty loop above may already have emitted a removal for a pair
    // that was both dirty and expired; skip those to keep changes unique.
    for (const std::size_t pair : expired) {
      EdgeChange change;
      estimator_.pair_nodes(pair, change.u, change.v);
      const bool already =
          std::any_of(changes.begin(), changes.end(), [&](const EdgeChange& c) {
            return c.u == change.u && c.v == change.v;
          });
      if (already) continue;
      change.old_rate = graph_.rate(change.u, change.v);
      change.new_rate = 0.0;
      changes.push_back(change);
    }
  }
  return changes;
}

void Daemon::repair(Time batch_time) {
  DTN_SCOPED_TIMER(kDaemonRepair);
  ++stats_.repair_batches;
  if (tables_.empty()) {
    // Nothing to repair incrementally yet: first batch builds from scratch.
    full_build(batch_time);
    return;
  }

  const std::vector<EdgeChange> changes = collect_drifted_edges();
  if (changes.empty()) {
    // Tables still exactly match the thresholded graph; record that this
    // stream prefix has been reconciled, keep the published epoch.
    shared_scan_clock_.store(batch_time, std::memory_order_release);
    return;
  }

  // Apply the rate updates and refresh the changed endpoints' edge terms.
  std::vector<std::pair<NodeId, NodeId>> changed;
  changed.reserve(changes.size());
  for (const EdgeChange& change : changes) {
    if (change.new_rate > 0.0) {
      graph_.set_rate(change.u, change.v, change.new_rate);
    } else {
      graph_.remove_edge(change.u, change.v);
    }
    refresh_edge_exp_row(edge_exp_, graph_, change.u);
    refresh_edge_exp_row(edge_exp_, graph_, change.v);
    changed.emplace_back(change.u, change.v);
  }
  stats_.edge_updates += changes.size();
  DTN_COUNT_N(kDaemonEdgeUpdates, changes.size());

  // One pass: each root's task reads and replaces only its own slots. A
  // root no change reaches keeps its table object.
  struct Outcome {
    bool repaired = false;
    bool local = false;
    bool grown = false;
    std::size_t resettled = 0;
  };
  const std::size_t n = tables_.size();
  std::vector<Outcome> outcome(n);
  parallel_for(config_.threads, n, [&](std::size_t r) {
    PathWorkspace& ws = thread_path_workspace();
    std::optional<ResettledTable> local = resettle_subtrees(
        graph_, *tables_[r], config_.max_hops, changed, ws, edge_exp_);
    if (local && !local->table) return;
    Outcome& o = outcome[r];
    o.repaired = true;
    if (local) {
      o.local = true;
      o.grown = local->grown > 0;
      o.resettled = local->resettled;
      tables_[r] = std::make_shared<const PathTable>(std::move(*local->table));
    } else {
      tables_[r] = std::make_shared<const PathTable>(
          compute_opportunistic_paths(graph_, static_cast<NodeId>(r),
                                      config_.horizon, config_.max_hops, ws,
                                      edge_exp_));
    }
    metric_[r] = ncl_metric(*tables_[r]);
  });
  std::uint64_t repaired = 0;
  std::uint64_t local = 0;
  std::uint64_t local_grown = 0;
  std::uint64_t nodes = 0;
  for (const Outcome& o : outcome) {
    repaired += o.repaired;
    local += o.local;
    local_grown += o.grown;
    nodes += o.resettled;
  }
  stats_.roots_repaired += repaired;
  stats_.roots_local += local;
  stats_.roots_grown += local_grown;
  stats_.nodes_resettled += nodes;
  DTN_COUNT_N(kDaemonRootsRepaired, repaired);
  DTN_COUNT_N(kDaemonRootsLocal, local);
  DTN_COUNT_N(kDaemonNodesResettled, nodes);
  DTN_COUNT_N(kDaemonRootsGrown, local_grown);

  if (config_.audit) audit_against_reference();
  publish_snapshot(batch_time);
}

void Daemon::full_build(Time batch_time) {
  ++stats_.full_rebuilds;
  const NodeId n = estimator_.node_count();
  // Materialize the thresholded graph from the estimator in canonical pair
  // order, counting only genuine edge arrivals/changes.
  ContactGraph fresh(n);
  std::uint64_t updates = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const double est = estimator_.rate(a, b);
      if (est <= 0.0) continue;
      fresh.set_rate(a, b, est);
      if (est != graph_.rate(a, b)) ++updates;
    }
  }
  graph_ = std::move(fresh);
  stats_.edge_updates += updates;
  DTN_COUNT_N(kDaemonEdgeUpdates, updates);
  for (const std::size_t pair : dirty_pairs_) dirty_flags_[pair] = 0;
  dirty_pairs_.clear();

  edge_exp_ = build_edge_exp_table(graph_, config_.horizon);
  const std::size_t roots = static_cast<std::size_t>(n);
  tables_.resize(roots);
  metric_.resize(roots);
  parallel_for(config_.threads, roots, [&](std::size_t r) {
    tables_[r] = std::make_shared<const PathTable>(compute_opportunistic_paths(
        graph_, static_cast<NodeId>(r), config_.horizon, config_.max_hops,
        thread_path_workspace(), edge_exp_));
    metric_[r] = ncl_metric(*tables_[r]);
  });
  stats_.roots_repaired += static_cast<std::uint64_t>(n);
  DTN_COUNT_N(kDaemonRootsRepaired, roots);

  if (config_.audit) audit_against_reference();
  publish_snapshot(batch_time);
}

void Daemon::publish_snapshot(Time batch_time) {
  ++epoch_;
  auto next = std::make_shared<Snapshot>();
  next->epoch = epoch_;
  next->graph = graph_;
  next->tables = SharedTables(tables_);
  next->metric = metric_;
  publish(std::move(next));
  ++stats_.snapshots_published;
  DTN_COUNT(kDaemonSnapshotsPublished);
  shared_scan_clock_.store(batch_time, std::memory_order_release);
}

void Daemon::audit_against_reference() {
  ++stats_.audit_rebuilds;
  DTN_COUNT(kDaemonAuditRebuilds);
  const NodeId n = graph_.node_count();
  const std::vector<PathTable> reference =
      parallel_map(config_.threads, static_cast<std::size_t>(n),
                   [&](std::size_t root) {
                     return compute_opportunistic_paths_reference(
                         graph_, static_cast<NodeId>(root), config_.horizon,
                         config_.max_hops);
                   });
  // Every entry field, bit for bit: a repair that keeps the weights but
  // picks another equal-weight parent changes later tree-use tests and
  // path_weight answers at other budgets. NCL selection must agree too:
  // the reference metric through the same fold, and the top-k set.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<double> ref_metric(static_cast<std::size_t>(n), 0.0);
  for (NodeId r = 0; r < n; ++r) {
    const std::size_t ri = static_cast<std::size_t>(r);
    for (NodeId node = 0; node < n; ++node) {
      const PathTable::Entry& got = tables_[ri]->entry(node);
      const PathTable::Entry& want = reference[ri].entry(node);
      DTN_CHECK(bits(got.weight) == bits(want.weight) &&
                    bits(got.last_rate) == bits(want.last_rate) &&
                    got.next_hop == want.next_hop && got.hops == want.hops,
                "incremental repair diverged from reference rebuild");
    }
    ref_metric[ri] = ncl_metric(reference[ri]);
    DTN_CHECK(ref_metric[ri] == metric_[ri],
              "repaired NCL metric diverged from reference");
  }
  DTN_CHECK(top_by_metric(metric_, kAuditNclK) ==
                top_by_metric(ref_metric, kAuditNclK),
            "repaired NCL set diverged from reference");
}

// ---- reader path -------------------------------------------------------

NclAnswer Daemon::ncl_set(int k) const {
  DTN_CHECK(k >= 1, "ncl_set needs k >= 1");
  DTN_COUNT(kDaemonQueries);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  NclAnswer answer;
  answer.info = query_info(*snap);
  if (!snap->ready()) return answer;
  answer.central = top_by_metric(snap->metric, static_cast<std::size_t>(k));
  return answer;
}

WeightAnswer Daemon::path_weight(NodeId src, NodeId dst, Time budget) const {
  DTN_COUNT(kDaemonQueries);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  WeightAnswer answer;
  answer.info = query_info(*snap);
  DTN_CHECK(src >= 0 && src < node_count() && dst >= 0 && dst < node_count(),
            "path_weight node out of range");
  if (src == dst) {
    answer.weight = 1.0;
    return answer;
  }
  if (!snap->ready()) return answer;
  answer.weight =
      snap->tables[static_cast<std::size_t>(dst)].weight_at(src, budget);
  return answer;
}

PlacementAnswer Daemon::placement_for(NodeId source, int k) const {
  DTN_CHECK(k >= 1, "placement_for needs k >= 1");
  DTN_COUNT(kDaemonQueries);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  PlacementAnswer answer;
  answer.info = query_info(*snap);
  DTN_CHECK(source >= 0 && source < node_count(),
            "placement source out of range");
  if (!snap->ready()) return answer;
  const std::vector<NodeId> central =
      top_by_metric(snap->metric, static_cast<std::size_t>(k));
  // Rank the central set by how well the source pushes data to each NCL:
  // the settled path weight source -> central at the snapshot horizon.
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(central.size());
  for (const NodeId c : central) {
    const double w =
        c == source
            ? 1.0
            : snap->tables[static_cast<std::size_t>(c)].weight(source);
    ranked.emplace_back(w, c);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const std::pair<double, NodeId>& a,
                      const std::pair<double, NodeId>& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;
                   });
  for (const auto& [w, c] : ranked) {
    answer.ranked.push_back(c);
    answer.weights.push_back(w);
  }
  return answer;
}

}  // namespace dtn::daemon
