#include "graph/opportunistic_path.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
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

double PathTable::weight_at(NodeId node, Time budget) const {
  if (node == root_) return 1.0;
  if (!reachable(node)) return 0.0;
  PathWorkspace& ws = thread_path_workspace();
  rates_to_root(node, ws.chain);
  const double w = hypoexp_cdf(ws.chain, budget, ws.hypoexp);
  DTN_CHECK_PROB(w);
  return w;
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
    DTN_CHECK(current != kNoNode);
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

// The kernel and resettle_subtrees share the heap and relaxation helpers
// below. Each is forced inline, as GCC inlined it when the kernel was its
// only caller: with two callers it calls them out of line, once per
// relaxation and per pop in the hottest loop of every table build.

// The frontier's order: `a` pops before `b`. QueueItem's operator< is the
// reference's max-heap order (weight desc, node asc), so the indexed heap
// below settles nodes in the order the reference's lazy heap does.
[[gnu::always_inline]] inline bool outranks(const QueueItem& a,
                                            const QueueItem& b) {
  return b < a;
}

// Writes `item` at heap index i and records its node's slot.
[[gnu::always_inline]] inline void place(PathWorkspace& ws, std::size_t i,
                                         const QueueItem& item) {
  ws.heap[i] = item;
  ws.slot_of[static_cast<std::size_t>(item.node)] = static_cast<std::int32_t>(i);
}

// Moves `item`, whose slot is heap index i, up past every parent it
// outranks.
[[gnu::always_inline]] inline void sift_up(PathWorkspace& ws, std::size_t i,
                                           const QueueItem& item) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!outranks(item, ws.heap[parent])) break;
    place(ws, i, ws.heap[parent]);
    i = parent;
  }
  place(ws, i, item);
}

// The weight settled node u, whose chain state is in ws.chains, offers a
// neighbour over an edge of `rate` with 1 - e^{-rate T} term `term`.
[[gnu::always_inline]] inline double candidate_of(PathWorkspace& ws,
                                                  NodeId u, double u_weight,
                                                  double rate, double term) {
  const double candidate =
      ws.chains.eval(static_cast<std::size_t>(u), rate, term, ws.hypoexp);
  DTN_CHECK_PROB(candidate);
  // Appending an exponential stage strictly decreases P(sum <= T); the
  // greedy exchange argument behind max-probability Dijkstra needs it.
  // Tolerance: prefix and extended path may dispatch to different CDF
  // algorithms (closed form / Erlang / uniformization), which disagree
  // by a few ulps when both weights saturate towards 1.
  DTN_CHECK_LE(candidate, u_weight + 1e-9);
  return candidate;
}

// Tentative node v, whose heap slot is `slot`, adopts u as its parent when
// `candidate` beats its label.
[[gnu::always_inline]] inline void offer(
    PathWorkspace& ws, std::vector<PathTable::Entry>& entries, NodeId u,
    int u_hops, NodeId v, std::int32_t slot, double rate, double term,
    double candidate) {
  auto& ev = entries[static_cast<std::size_t>(v)];
  if (!(candidate > ev.weight)) return;
  ev.weight = candidate;
  ev.next_hop = u;
  ev.hops = u_hops + 1;
  ev.last_rate = rate;
  ws.edge_term[static_cast<std::size_t>(v)] = term;
  // A queued node keeps its slot, and its key only grew: sift it up.
  if (slot == PathWorkspace::kUnreached) ws.heap.emplace_back();
  const std::size_t at = slot == PathWorkspace::kUnreached
                             ? ws.heap.size() - 1
                             : static_cast<std::size_t>(slot);
  sift_up(ws, at, {candidate, v});
}

// Removes the top slot and marks its node settled.
[[gnu::always_inline]] inline NodeId pop_top(PathWorkspace& ws) {
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

  while (!heap.empty()) {
    const NodeId u = pop_top(ws);
    const auto& eu = entries[static_cast<std::size_t>(u)];
    ++settled_count;
    if (eu.hops >= max_hops) continue;

    // u is settled, so its rate chain is final: its parent's chain plus
    // the adopted edge. Derive its closed-form state once from the
    // parent's and reuse it for every outgoing relaxation.
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
      ++relaxations;
      const double one_minus_exp =
          exp_row ? (*exp_row)[idx] : stage_cdf(nb.rate, horizon);
      const double candidate =
          candidate_of(ws, u, eu.weight, nb.rate, one_minus_exp);
      offer(ws, entries, u, eu.hops, nb.node, slot, nb.rate, one_minus_exp,
            candidate);
    }
  }
  ws.chains.flush_counts();
  DTN_COUNT_N(kDijkstraSettled, settled_count);
  DTN_COUNT_N(kDijkstraRelaxations, relaxations);
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
  for (NodeId u = 0; u < n; ++u) refresh_edge_exp_row(table, graph, u);
  return table;
}

void refresh_edge_exp_row(EdgeExpTable& table, const ContactGraph& graph,
                          NodeId node) {
  const auto& neighbors = graph.neighbors(node);
  auto& row = table.one_minus_exp[static_cast<std::size_t>(node)];
  row.resize(neighbors.size());
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    row[i] = stage_cdf(neighbors[i].rate, table.horizon);
  }
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

namespace {

// Gives `node` the chain state the kernel gave it in the old table,
// deriving the states of its ancestors that lack one first (the root always
// has one). `node` and its ancestors hold their old entries in `entries`:
// before D is known every node does, and every ancestor of a kept node is
// kept.
void chain_kept(PathWorkspace& ws, const std::vector<PathTable::Entry>& entries,
                NodeId node, Time horizon) {
  ws.walk.clear();
  for (NodeId u = node; !ws.chained[static_cast<std::size_t>(u)];
       u = entries[static_cast<std::size_t>(u)].next_hop) {
    ws.walk.push_back(u);
  }
  for (auto it = ws.walk.rbegin(); it != ws.walk.rend(); ++it) {
    const PathTable::Entry& e = entries[static_cast<std::size_t>(*it)];
    // The expression build_edge_exp_table stores: the term the kernel used.
    ws.chains.extend(static_cast<std::size_t>(*it),
                     static_cast<std::size_t>(e.next_hop), e.last_rate,
                     stage_cdf(e.last_rate, horizon));
    ws.chained[static_cast<std::size_t>(*it)] = 1;
  }
}

}  // namespace

std::optional<ResettledTable> resettle_subtrees(
    const ContactGraph& graph, const PathTable& old, int max_hops,
    const std::vector<std::pair<NodeId, NodeId>>& changed, PathWorkspace& ws,
    const EdgeExpTable& edge_exp) {
  using Entry = PathTable::Entry;
  using BoundaryEdge = PathWorkspace::BoundaryEdge;
  constexpr std::int32_t kInside = PathWorkspace::kUnreached;
  constexpr std::int32_t kOutside = PathWorkspace::kOutside;
  const NodeId root = old.root();
  const Time horizon = old.horizon();
  validate_dijkstra_args(graph, root, horizon, max_hops);
  const NodeId n = graph.node_count();
  DTN_CHECK(old.node_count() == n, "path table built for a different graph");
  DTN_CHECK(edge_exp.horizon == horizon,
            "edge-exp table built for a different horizon");
  DTN_CHECK(edge_exp.one_minus_exp.size() == static_cast<std::size_t>(n),
            "edge-exp table built for a different graph");
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };

  ws.chains.prepare(at(n), std::min(at(max_hops), at(n - 1)), horizon);
  ws.chained.assign(at(n), 0);
  ws.chains.set_empty(at(root));
  ws.chained[at(root)] = 1;
  [[maybe_unused]] std::uint64_t settled_count = 0;
  [[maybe_unused]] std::uint64_t relaxations = 0;
  const auto flush_counts = [&] {
    ws.chains.flush_counts();
    DTN_COUNT_N(kDijkstraSettled, settled_count);
    DTN_COUNT_N(kDijkstraRelaxations, relaxations);
  };

  // D starts at the child end of every changed tree edge. Across any other
  // changed edge still in the graph, the kernel's first adoption of it
  // would extend the old chain of the end that offers, so the other end
  // joins D when that offer reaches its weight. A node of D is kInside
  // until the merge reaches it; a kept node is kOutside until D grows over
  // it.
  const std::vector<Entry>& old_entries = old.entries();
  auto& slot_of = ws.slot_of;
  slot_of.assign(at(n), kOutside);
  bool d_empty = true;
  const auto join = [&](NodeId v) {
    slot_of[at(v)] = kInside;
    d_empty = false;
  };
  for (const auto& [a, b] : changed) {
    const NodeId child = old.tree_child(a, b);
    if (child != kNoNode) {
      join(child);
      continue;
    }
    const double rate = graph.rate(a, b);
    if (!(rate > 0.0)) continue;  // removed: nothing relaxes over it
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      const Entry& ef = old_entries[at(from)];
      if (to == root || !(ef.weight > 0.0) || ef.hops >= max_hops) continue;
      chain_kept(ws, old_entries, from, horizon);
      ++relaxations;
      const double candidate =
          candidate_of(ws, from, ef.weight, rate, stage_cdf(rate, horizon));
      if (candidate >= old_entries[at(to)].weight) join(to);
    }
  }
  if (d_empty) {
    flush_counts();
    return ResettledTable{};
  }

  // One pass over the old entries closes D and checks the strict chains.
  for (NodeId v = 0; v < n; ++v) {
    const Entry& e = old_entries[at(v)];
    if (v == root || !(e.weight > 0.0)) continue;
    if (!(e.weight < old_entries[at(e.next_hop)].weight)) {
      flush_counts();
      return std::nullopt;
    }
    if (slot_of[at(v)] == kInside) continue;
    for (NodeId u = e.next_hop; u != root; u = old_entries[at(u)].next_hop) {
      if (slot_of[at(u)] == kInside) {
        slot_of[at(v)] = kInside;
        break;
      }
    }
  }
  std::vector<Entry> entries = old_entries;
  std::size_t resettled = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (slot_of[at(v)] != kInside) continue;
    entries[at(v)] = Entry{};
    ++resettled;
  }

  ws.edge_term.resize(at(n));
  ws.heap.clear();
  // A node's key in the pop order: its entry's weight and its id.
  const auto key = [&](NodeId v) {
    return QueueItem{entries[at(v)].weight, v};
  };
  const auto pops_first = [](const BoundaryEdge& x, const BoundaryEdge& y) {
    return outranks({x.weight, x.from}, {y.weight, y.from});
  };

  // The key of the latest pop, kept or in D, and whether every pop so far
  // ranked after the one before it: then key order is pop order.
  QueueItem last{std::numeric_limits<double>::infinity(), root};
  bool monotone = true;
  const auto popped = [&](const QueueItem& item) {
    if (!outranks(last, item)) monotone = false;
    last = item;
  };

  // Queues every relaxation into D node d from a neighbour below the hop
  // cap: onto `boundary` when it is a kept node still to pop, onto
  // `replay` when it popped already, kept or in D. A node of D still to
  // pop relaxes d when it pops.
  auto& boundary = ws.boundary;
  auto& replay = ws.replay;
  boundary.clear();
  replay.clear();
  const auto queue_relaxations_into = [&](NodeId d) {
    const auto& neighbors = graph.neighbors(d);
    const auto& row = edge_exp.one_minus_exp[at(d)];
    for (std::size_t idx = 0; idx < neighbors.size(); ++idx) {
      const NodeId p = neighbors[idx].node;
      const std::int32_t slot = slot_of[at(p)];
      if (slot != kOutside && slot != PathWorkspace::kSettled) continue;
      const Entry& ep = entries[at(p)];
      if (!(ep.weight > 0.0) || ep.hops >= max_hops) continue;
      const BoundaryEdge edge{ep.weight, p, d, neighbors[idx].rate, row[idx]};
      if (slot == kOutside && !outranks(key(p), last)) {
        boundary.push_back(edge);
      } else {
        replay.push_back(edge);
      }
    }
  };
  for (NodeId d = 0; d < n; ++d) {
    if (slot_of[at(d)] == kInside) queue_relaxations_into(d);
  }
  std::sort(boundary.begin(), boundary.end(), pops_first);

  // Moves kept node k, which the latest pop offered at least its weight,
  // and every kept node below it into D, or returns false: when the pops
  // so far did not run in key order, or when D would pass its share of the
  // nodes. None of the nodes moved has popped: k ranks after the latest
  // pop, and strict chains rank every node below k after k. Each takes
  // again, in pop order, the offers of the neighbours that popped before
  // it, the latest pop last; the relaxations from kept neighbours still to
  // pop are sorted and merged into the rest of the boundary (one kept
  // node's relaxations share its key, so they stay together).
  const auto max_resettled =
      static_cast<std::size_t>(kMaxResettledShare * static_cast<double>(n));
  std::size_t grown = 0;
  std::size_t next = 0;  // the boundary's first relaxation still to come
  const auto grow = [&](NodeId k) {
    if (!monotone) return false;
    // The first pop is a kept node, which strict chains rank after the
    // root unless it is the root, so every later pop ranks after the root
    // too: the root counts as popped, and never grows.
    DTN_CHECK(k != root, "a pop in key order offered the root");
    auto& members = ws.grown;
    members.assign(1, k);
    const Entry& ek = entries[at(k)];
    for (NodeId v = 0; ek.weight > 0.0 && v < n; ++v) {
      const Entry& e = entries[at(v)];
      if (slot_of[at(v)] != kOutside || !(e.weight > 0.0) ||
          e.hops <= ek.hops) {
        continue;
      }
      // A kept node's ancestors are kept: v is below k when its ancestor
      // at k's depth is k. An unreached k has nothing below it.
      NodeId a = v;
      for (int h = e.hops; h > ek.hops; --h) a = entries[at(a)].next_hop;
      if (a == k) members.push_back(v);
    }
    if (resettled + members.size() > max_resettled) return false;
    for (const NodeId g : members) {
      entries[at(g)] = Entry{};
      slot_of[at(g)] = kInside;
    }
    resettled += members.size();
    grown += members.size();
    const std::size_t queued = boundary.size();
    for (const NodeId g : members) queue_relaxations_into(g);
    std::sort(replay.begin(), replay.end(), pops_first);
    for (const BoundaryEdge& edge : replay) {
      const Entry& ef = entries[at(edge.from)];
      if (slot_of[at(edge.from)] == kOutside) {
        chain_kept(ws, entries, edge.from, horizon);
      }
      ++relaxations;
      offer(ws, entries, edge.from, ef.hops, edge.to, slot_of[at(edge.to)],
            edge.rate, edge.term,
            candidate_of(ws, edge.from, ef.weight, edge.rate, edge.term));
      // An offer made before the latest pop's came from a kept node, at
      // most the moved node's old weight (below it across a changed edge,
      // or the node would have joined D at the start), or passed the
      // strict check against that weight, which ranks after the latest
      // pop.
      DTN_CHECK(edge.from == last.node || !outranks(key(edge.to), last),
                "a grown node outranks the pop that grew it");
    }
    replay.clear();
    std::sort(boundary.begin() + static_cast<std::ptrdiff_t>(queued),
              boundary.end(), pops_first);
    std::inplace_merge(boundary.begin() + static_cast<std::ptrdiff_t>(next),
                       boundary.begin() + static_cast<std::ptrdiff_t>(queued),
                       boundary.end(), pops_first);
    return true;
  };

  // The kernel's pops, restricted to D and the kept nodes next to it: at
  // each step the higher-ranked of D's frontier top and the next kept node.
  for (;;) {
    // A kept node that joined D pops from D's frontier instead.
    while (next < boundary.size() &&
           slot_of[at(boundary[next].from)] != kOutside) {
      ++next;
    }
    if (next == boundary.size() && ws.heap.empty()) break;
    if (next < boundary.size() &&
        (ws.heap.empty() ||
         outranks({boundary[next].weight, boundary[next].from},
                  ws.heap.front()))) {
      const NodeId b = boundary[next].from;
      const Entry& eb = entries[at(b)];
      popped(key(b));
      chain_kept(ws, entries, b, horizon);
      for (; next < boundary.size() && boundary[next].from == b; ++next) {
        const BoundaryEdge& edge = boundary[next];
        const std::int32_t slot = slot_of[at(edge.to)];
        if (slot == PathWorkspace::kSettled) continue;
        ++relaxations;
        offer(ws, entries, b, eb.hops, edge.to, slot, edge.rate, edge.term,
              candidate_of(ws, b, eb.weight, edge.rate, edge.term));
      }
      continue;
    }
    const NodeId u = pop_top(ws);
    ++settled_count;
    const Entry& eu = entries[at(u)];
    popped(key(u));
    if (eu.hops >= max_hops) continue;
    ws.chains.extend(at(u), at(eu.next_hop), eu.last_rate, ws.edge_term[at(u)]);
    const auto& neighbors = graph.neighbors(u);
    const auto& row = edge_exp.one_minus_exp[at(u)];
    for (std::size_t idx = 0; idx < neighbors.size(); ++idx) {
      const auto& nb = neighbors[idx];
      const std::int32_t slot = slot_of[at(nb.node)];
      if (slot == PathWorkspace::kSettled) continue;
      // A kept node that popped before u is settled in the kernel too.
      if (slot == kOutside && outranks(key(nb.node), {eu.weight, u})) continue;
      ++relaxations;
      const double candidate =
          candidate_of(ws, u, eu.weight, nb.rate, row[idx]);
      if (slot != kOutside) {
        offer(ws, entries, u, eu.hops, nb.node, slot, nb.rate, row[idx],
              candidate);
        continue;
      }
      // A kept node still to pop keeps its entry unless this offer
      // reaches its weight; then it re-settles, and u's offers to it and
      // the other moved nodes are the last the growth replays (u offers
      // those later in its list again below, which changes nothing).
      if (candidate < entries[at(nb.node)].weight) continue;
      if (!grow(nb.node)) {
        flush_counts();
        return std::nullopt;
      }
    }
  }
  flush_counts();
  return ResettledTable{PathTable(root, horizon, std::move(entries)),
                        resettled, grown};
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
