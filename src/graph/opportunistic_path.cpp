#include "graph/opportunistic_path.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"
#include "graph/hypoexp.h"

namespace dtn {

PathTable::PathTable(NodeId root, Time horizon, std::vector<Entry> entries)
    : root_(root), horizon_(horizon), entries_(std::move(entries)) {
  if (root_ < 0 || root_ >= node_count()) {
    throw std::invalid_argument("path table root out of range");
  }
}

void PathTable::rates_to_root(NodeId node, std::vector<double>& out) const {
  const Entry& e = entry(node);
  out.resize(static_cast<std::size_t>(e.hops));
  if (e.hops == 0) return;  // root or unreachable
  DTN_COUNT(kParentChainWalks);
  NodeId current = node;
  for (int i = e.hops - 1; i >= 0; --i) {
    const Entry& ec = entries_[static_cast<std::size_t>(current)];
    out[static_cast<std::size_t>(i)] = ec.last_rate;
    current = ec.next_hop;
  }
  DTN_CHECK(current == root_, "parent chain did not terminate at the root");
}

std::vector<double> PathTable::rates(NodeId node) const {
  std::vector<double> out;
  rates_to_root(node, out);
  return out;
}

std::vector<NodeId> PathTable::path_to_root(NodeId node) const {
  if (!reachable(node)) return {};
  std::vector<NodeId> path;
  NodeId current = node;
  path.push_back(current);
  while (current != root_) {
    current = entry(current).next_hop;
    assert(current != kNoNode);
    path.push_back(current);
    if (path.size() > entries_.size()) {
      throw std::logic_error("cycle in path table");  // defensive
    }
  }
  return path;
}

namespace {

using QueueItem = PathWorkspace::QueueItem;

void validate_dijkstra_args(const ContactGraph& graph, NodeId root,
                            Time horizon, int max_hops) {
  if (root < 0 || root >= graph.node_count()) {
    throw std::invalid_argument("root out of range");
  }
  if (!(horizon > 0.0)) throw std::invalid_argument("horizon must be > 0");
  if (max_hops < 1) throw std::invalid_argument("max_hops must be >= 1");
}

// The frontier's order: `a` pops before `b`. QueueItem's operator< is the
// reference's max-heap order (weight desc, node asc), so the indexed heap
// below settles nodes in the order the reference's lazy heap does.
bool outranks(const QueueItem& a, const QueueItem& b) { return b < a; }

// Writes `item` at heap index i and records its node's slot.
void place(PathWorkspace& ws, std::size_t i, const QueueItem& item) {
  ws.heap[i] = item;
  ws.slot_of[static_cast<std::size_t>(item.node)] = static_cast<std::int32_t>(i);
}

// Moves `item`, whose slot is heap index i, up past every parent it
// outranks.
void sift_up(PathWorkspace& ws, std::size_t i, const QueueItem& item) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!outranks(item, ws.heap[parent])) break;
    place(ws, i, ws.heap[parent]);
    i = parent;
  }
  place(ws, i, item);
}

// Removes the top slot and marks its node settled.
NodeId pop_top(PathWorkspace& ws) {
  auto& heap = ws.heap;
  const NodeId top = heap.front().node;
  ws.slot_of[static_cast<std::size_t>(top)] = PathWorkspace::kSettled;
  const QueueItem last = heap.back();
  heap.pop_back();
  const std::size_t size = heap.size();
  if (size == 0) return top;
  std::size_t i = 0;
  for (std::size_t child = 1; child < size; child = 2 * i + 1) {
    if (child + 1 < size && outranks(heap[child + 1], heap[child])) ++child;
    if (!outranks(heap[child], last)) break;
    place(ws, i, heap[child]);
    i = child;
  }
  place(ws, i, last);
  return top;
}

PathTable run_fast_dijkstra(const ContactGraph& graph, NodeId root,
                            Time horizon, int max_hops, PathWorkspace& ws,
                            const EdgeExpTable* edge_exp) {
  validate_dijkstra_args(graph, root, horizon, max_hops);
  const NodeId n = graph.node_count();
  DTN_SCOPED_TIMER(kDijkstra);

  std::vector<PathTable::Entry> entries(static_cast<std::size_t>(n));
  entries[static_cast<std::size_t>(root)].weight = 1.0;  // empty path
  entries[static_cast<std::size_t>(root)].next_hop = root;

  // A settled node's chain state is derived from its parent's, so every
  // settled node keeps one; a simple path has at most n - 1 hops, which
  // bounds the stride whatever max_hops says.
  ws.chains.prepare(static_cast<std::size_t>(n),
                    std::min(static_cast<std::size_t>(max_hops),
                             static_cast<std::size_t>(n - 1)),
                    horizon);
  ws.edge_term.resize(static_cast<std::size_t>(n));
  ws.slot_of.assign(static_cast<std::size_t>(n), PathWorkspace::kUnreached);
  auto& heap = ws.heap;
  heap.clear();
  heap.emplace_back();
  place(ws, 0, {1.0, root});

  // Counter totals are the observable contract, not per-call granularity:
  // accumulate locally and flush once per table, keeping atomic traffic
  // out of the inner loop (the reference engine pays one fetch_add per
  // relaxation; this one pays a handful per table, and the chain table
  // batches its tier counts the same way). maybe_unused: with
  // DTN_INSTRUMENT_OFF the flushes below compile to nothing (by contract
  // they must not evaluate their argument) and the accumulation dead-codes
  // away.
  [[maybe_unused]] std::uint64_t settled_count = 0;
  [[maybe_unused]] std::uint64_t relaxations = 0;
  [[maybe_unused]] std::uint64_t bytes_not_allocated = 0;

  while (!heap.empty()) {
    const NodeId u = pop_top(ws);
    const auto& eu = entries[static_cast<std::size_t>(u)];
    ++settled_count;
    if (eu.hops >= max_hops) continue;

    // u is settled, so its rate chain is final: its parent's chain plus
    // the adopted edge. Derive its closed-form state once from the
    // parent's and reuse it for every outgoing relaxation.
    const std::size_t prefix = static_cast<std::size_t>(eu.hops);
    if (u == root) {
      ws.chains.set_empty(static_cast<std::size_t>(u));
    } else {
      ws.chains.extend(static_cast<std::size_t>(u),
                       static_cast<std::size_t>(eu.next_hop), eu.last_rate,
                       ws.edge_term[static_cast<std::size_t>(u)]);
    }

    const auto& neighbors = graph.neighbors(u);
    const std::vector<double>* exp_row =
        edge_exp ? &edge_exp->one_minus_exp[static_cast<std::size_t>(u)]
                 : nullptr;
    for (std::size_t idx = 0; idx < neighbors.size(); ++idx) {
      const auto& nb = neighbors[idx];
      const std::int32_t slot = ws.slot_of[static_cast<std::size_t>(nb.node)];
      if (slot == PathWorkspace::kSettled) continue;
      auto& ev = entries[static_cast<std::size_t>(nb.node)];
      ++relaxations;
      // Bytes the legacy per-relaxation chain copy would have heap-allocated.
      bytes_not_allocated += (prefix + 1) * sizeof(double);
      const double one_minus_exp =
          exp_row ? (*exp_row)[idx] : 1.0 - std::exp(-nb.rate * horizon);
      const double candidate = ws.chains.eval(
          static_cast<std::size_t>(u), nb.rate, one_minus_exp, ws.hypoexp);
      DTN_CHECK_PROB(candidate);
      // Appending an exponential stage strictly decreases P(sum <= T); the
      // greedy exchange argument behind max-probability Dijkstra needs it.
      // Tolerance: prefix and extended path may dispatch to different CDF
      // algorithms (closed form / Erlang / uniformization), which disagree
      // by a few ulps when both weights saturate towards 1.
      DTN_CHECK_LE(candidate, eu.weight + 1e-9);
      if (candidate > ev.weight) {
        ev.weight = candidate;
        ev.next_hop = u;
        ev.hops = eu.hops + 1;
        ev.last_rate = nb.rate;
        ws.edge_term[static_cast<std::size_t>(nb.node)] = one_minus_exp;
        // A queued node keeps its slot, and its key only grew: sift it up.
        if (slot == PathWorkspace::kUnreached) heap.emplace_back();
        const std::size_t at = slot == PathWorkspace::kUnreached
                                   ? heap.size() - 1
                                   : static_cast<std::size_t>(slot);
        sift_up(ws, at, {candidate, nb.node});
      }
    }
  }
  ws.chains.flush_counts();
  DTN_COUNT_N(kDijkstraSettled, settled_count);
  DTN_COUNT_N(kDijkstraRelaxations, relaxations);
  DTN_COUNT_N(kPathScratchReuses, relaxations);
  DTN_COUNT_N(kPathBytesNotAllocated, bytes_not_allocated);
  DTN_COUNT(kPathTablesBuilt);
  return PathTable(root, horizon, std::move(entries));
}

}  // namespace

PathWorkspace& thread_path_workspace() {
  static thread_local PathWorkspace ws;
  return ws;
}

EdgeExpTable build_edge_exp_table(const ContactGraph& graph, Time horizon) {
  EdgeExpTable table;
  table.horizon = horizon;
  const NodeId n = graph.node_count();
  table.one_minus_exp.resize(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    const auto& neighbors = graph.neighbors(u);
    auto& row = table.one_minus_exp[static_cast<std::size_t>(u)];
    row.resize(neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      row[i] = 1.0 - std::exp(-neighbors[i].rate * horizon);
    }
  }
  return table;
}

PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops,
                                      PathWorkspace& ws) {
  return run_fast_dijkstra(graph, root, horizon, max_hops, ws, nullptr);
}

PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops,
                                      PathWorkspace& ws,
                                      const EdgeExpTable& edge_exp) {
  DTN_CHECK(edge_exp.horizon == horizon,
            "edge-exp table built for a different horizon");
  DTN_CHECK(edge_exp.one_minus_exp.size() ==
                static_cast<std::size_t>(graph.node_count()),
            "edge-exp table built for a different graph");
  return run_fast_dijkstra(graph, root, horizon, max_hops, ws, &edge_exp);
}

PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops) {
  return compute_opportunistic_paths(graph, root, horizon, max_hops,
                                     thread_path_workspace());
}

PathTable compute_opportunistic_paths_reference(const ContactGraph& graph,
                                                NodeId root, Time horizon,
                                                int max_hops) {
  validate_dijkstra_args(graph, root, horizon, max_hops);
  const NodeId n = graph.node_count();
  DTN_SCOPED_TIMER(kDijkstra);

  std::vector<PathTable::Entry> entries(static_cast<std::size_t>(n));
  // The legacy layout embedded each entry's full rate chain; the reference
  // engine keeps those chains in a side table so the relaxation loop below
  // is a line-for-line transcription of the pre-workspace implementation.
  std::vector<std::vector<double>> rate_chains(static_cast<std::size_t>(n));
  entries[static_cast<std::size_t>(root)].weight = 1.0;  // empty path
  entries[static_cast<std::size_t>(root)].next_hop = root;

  std::priority_queue<QueueItem> queue;
  queue.push({1.0, root});
  std::vector<bool> settled(static_cast<std::size_t>(n), false);

  while (!queue.empty()) {
    const auto [weight, u] = queue.top();
    queue.pop();
    auto& eu = entries[static_cast<std::size_t>(u)];
    if (settled[static_cast<std::size_t>(u)]) continue;
    if (weight < eu.weight) continue;  // stale entry
    settled[static_cast<std::size_t>(u)] = true;
    DTN_COUNT(kDijkstraSettled);
    if (eu.hops >= max_hops) continue;

    for (const auto& nb : graph.neighbors(u)) {
      auto& ev = entries[static_cast<std::size_t>(nb.node)];
      if (settled[static_cast<std::size_t>(nb.node)]) continue;
      DTN_COUNT(kDijkstraRelaxations);
      std::vector<double> rates = rate_chains[static_cast<std::size_t>(u)];
      rates.push_back(nb.rate);
      const double candidate = hypoexp_cdf(rates, horizon);
      DTN_CHECK_PROB(candidate);
      DTN_CHECK_LE(candidate, eu.weight + 1e-9);
      if (candidate > ev.weight) {
        ev.weight = candidate;
        ev.next_hop = u;
        ev.hops = eu.hops + 1;
        ev.last_rate = nb.rate;
        rate_chains[static_cast<std::size_t>(nb.node)] = std::move(rates);
        queue.push({candidate, nb.node});
      }
    }
  }
  DTN_COUNT(kPathTablesBuilt);
  return PathTable(root, horizon, std::move(entries));
}

namespace {

void dfs_best(const ContactGraph& graph, NodeId current, NodeId target,
              Time horizon, int hops_left, std::vector<double>& rates,
              std::vector<bool>& visited, double& best) {
  if (current == target) {
    best = std::max(best, hypoexp_cdf(rates, horizon));
    return;
  }
  if (hops_left == 0) return;
  visited[static_cast<std::size_t>(current)] = true;
  for (const auto& nb : graph.neighbors(current)) {
    if (visited[static_cast<std::size_t>(nb.node)]) continue;
    rates.push_back(nb.rate);
    dfs_best(graph, nb.node, target, horizon, hops_left - 1, rates, visited,
             best);
    rates.pop_back();
  }
  visited[static_cast<std::size_t>(current)] = false;
}

}  // namespace

double brute_force_best_weight(const ContactGraph& graph, NodeId from,
                               NodeId to, Time horizon, int max_hops) {
  if (from == to) return 1.0;
  std::vector<double> rates;
  std::vector<bool> visited(static_cast<std::size_t>(graph.node_count()), false);
  double best = 0.0;
  dfs_best(graph, from, to, horizon, max_hops, rates, visited, best);
  return best;
}

}  // namespace dtn
