// Shortest opportunistic paths (paper Definition 1).
//
// The weight of a path is the probability that data traverses all its hops
// within a time budget T (the hypoexponential CDF of the hop rates); the
// "shortest" path between two nodes is the one maximizing that probability.
// Appending a hop to a path strictly decreases its weight (the sum of one
// more positive random variable stochastically dominates), so a Dijkstra-
// style label-setting search applies. Note the classic caveat: the weight
// is a function of the whole rate multiset, not an edge-decomposable
// semiring, so label-setting is the standard *greedy* construction used in
// this literature rather than an exact optimum over all paths; tests verify
// it is exact on small graphs by comparison with brute-force enumeration.
//
// Memory layout (DESIGN.md §9): an entry stores only its final-stage rate
// plus the parent pointer, which keeps the all-pairs footprint at O(n²)
// doubles (instead of O(n²·hops)); rates_to_root walks the parent chain
// when a caller needs a node's whole chain. The construction never walks:
// a node's chain is its parent's plus one rate, so when a node settles the
// kernel derives the closed-form state of its chain from its parent's
// (HypoexpChainTable::extend, kept per settled node in the thread's
// PathWorkspace) and evaluates every outgoing relaxation from it, with the
// exact doubles hypoexp_cdf returns on the full chain.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/contact_graph.h"
#include "graph/hypoexp.h"

namespace dtn {

/// Per-thread scratch for the path engine and the weight re-evaluations.
/// The kernel keeps, for every settled node, the closed-form state of its
/// rate chain (`chains`, n slots of min(max_hops, n - 1) stages: a simple
/// path has at most n - 1 hops) and, for every tentative node, the
/// 1 - e^{-x T} term of the edge it adopted (`edge_term`). Its frontier is
/// an indexed max-heap: `heap` holds one slot per tentative node, ordered
/// by (weight desc, node asc), and `slot_of[v]` is v's index in it, or
/// kUnreached / kSettled. A node whose label improves is sifted up in
/// place, so the heap never holds a stale entry. resettle_subtrees marks
/// the nodes it keeps kOutside, and keeps in `chained` which of them hold
/// a chain state, in `walk` the ancestors it derives one for, in
/// `boundary` the relaxations from kept nodes into re-settled ones that
/// are still to come, in `grown` the kept nodes it is moving into the
/// re-settled set, and in `replay` the offers they took from nodes that
/// already popped. `chain` and `hypoexp` serve rates_to_root and
/// hypoexp_cdf. A workspace carries capacity, never results: reusing one
/// across calls cannot change a table. Take it from thread_path_workspace()
/// so each thread allocates it once; sharing one across concurrent calls
/// is a data race.
struct PathWorkspace {
  struct QueueItem {
    double weight;
    NodeId node;
    bool operator<(const QueueItem& other) const {
      // max-heap on weight, deterministic tie-break on node id
      if (weight != other.weight) return weight < other.weight;
      return node > other.node;
    }
  };
  /// A relaxation into a re-settled node from a kept node or from one
  /// that popped already, over an edge of `rate` whose 1 - e^{-rate T}
  /// term is `term`.
  struct BoundaryEdge {
    double weight;  ///< the relaxing node's weight: its place in the pop order
    NodeId from;
    NodeId to;
    double rate;
    double term;
  };
  static constexpr std::int32_t kUnreached = -1;
  static constexpr std::int32_t kSettled = -2;
  static constexpr std::int32_t kOutside = -3;

  std::vector<double> chain;
  HypoexpWorkspace hypoexp;
  HypoexpChainTable chains;
  std::vector<double> edge_term;
  std::vector<QueueItem> heap;
  std::vector<std::int32_t> slot_of;
  std::vector<std::uint8_t> chained;
  std::vector<NodeId> walk;
  std::vector<BoundaryEdge> boundary;
  std::vector<NodeId> grown;
  std::vector<BoundaryEdge> replay;
};

/// The calling thread's workspace. Every table build and weight
/// re-evaluation takes this one, so a thread allocates it once; a caller
/// must not hold it across a call that takes it again.
PathWorkspace& thread_path_workspace();

/// Result of a single-source computation rooted at `root()`.
class PathTable {
 public:
  struct Entry {
    double weight = 0.0;     ///< p(T) to the root; 0 when unreachable.
    double last_rate = 0.0;  ///< rate of the final hop (next_hop -> node);
                             ///< 0 for the root and unreachable nodes.
    NodeId next_hop = kNoNode;  ///< neighbor one hop closer to the root.
    int hops = 0;               ///< path length; 0 only for the root itself.
  };

  PathTable(NodeId root, Time horizon, std::vector<Entry> entries);

  NodeId root() const { return root_; }
  Time horizon() const { return horizon_; }
  NodeId node_count() const { return static_cast<NodeId>(entries_.size()); }

  /// Entry lookup. The node id is a caller contract (ids come from the
  /// same graph the table was built from), enforced by DTN_CHECK rather
  /// than .at()'s exception machinery: this accessor sits under every
  /// weight()/weight_at() metric loop.
  const Entry& entry(NodeId node) const {
    DTN_CHECK(node >= 0 && node < node_count(),
              "path table node out of range");
    return entries_[static_cast<std::size_t>(node)];
  }

  const std::vector<Entry>& entries() const { return entries_; }

  double weight(NodeId node) const { return entry(node).weight; }
  bool reachable(NodeId node) const { return entry(node).weight > 0.0; }

  /// The endpoint of the undirected edge (u, v) whose parent is the other
  /// one, when this table's tree uses the edge; kNoNode otherwise. Every
  /// reached non-root entry stores its final hop, so the test is O(1).
  NodeId tree_child(NodeId u, NodeId v) const {
    const auto parent_is = [&](NodeId node, NodeId parent) {
      const Entry& e = entry(node);
      return e.hops > 0 && e.weight > 0.0 && e.next_hop == parent;
    };
    if (parent_is(u, v)) return u;
    if (parent_is(v, u)) return v;
    return kNoNode;
  }

  /// Weight of `node`'s settled path re-evaluated at another time budget
  /// (Eq. 2 on the same rate chain, e.g. p_CR(T_q - t_0)): 1 for the root,
  /// 0 when unreachable. Runs on thread_path_workspace().
  double weight_at(NodeId node, Time budget) const;

  /// Materializes the hop-rate chain of `node`'s path into `out` by
  /// walking the parent chain: out[0] is the hop leaving the root,
  /// out.back() the final hop into `node` — exactly the vector the legacy
  /// embedded-rates layout stored per entry. Resized to entry(node).hops;
  /// empty for the root and for unreachable nodes.
  void rates_to_root(NodeId node, std::vector<double>& out) const;

  /// Allocating convenience wrapper around rates_to_root (tests, tools).
  std::vector<double> rates(NodeId node) const;

  /// Reconstructs the node sequence from `node` to the root (inclusive).
  /// Empty when unreachable.
  std::vector<NodeId> path_to_root(NodeId node) const;

 private:
  NodeId root_;
  Time horizon_;
  std::vector<Entry> entries_;
};

/// Per-edge cache of 1 - e^{-rate * horizon}: the appended-stage exp term
/// of every closed-form (and single-hop) evaluation in the relaxation loop.
/// The term depends only on the edge rate and the horizon, both fixed
/// across every root of an all-pairs or NCL-metric build, so computing it
/// once per (graph, horizon) and sharing it across roots removes one exp()
/// call per relaxation — same double value, so tables stay bit-identical.
/// Rows parallel ContactGraph::neighbors(u) index-for-index.
struct EdgeExpTable {
  Time horizon = 0.0;
  std::vector<std::vector<double>> one_minus_exp;  ///< [node][neighbor idx]
};

EdgeExpTable build_edge_exp_table(const ContactGraph& graph, Time horizon);

/// Recomputes `node`'s row of `table` from `graph`, with the expression
/// build_edge_exp_table uses: after an edge of `node` changed rate, arrived
/// or left (which shifts the row's indices), the table again equals a
/// fresh build on `graph`.
void refresh_edge_exp_row(EdgeExpTable& table, const ContactGraph& graph,
                          NodeId node);

/// Single-source shortest opportunistic paths within time budget `horizon`.
/// Paths longer than `max_hops` hops are not considered (coefficients and
/// delivery probability both degrade rapidly with hop count; the paper's
/// traces rarely need more than a handful of hops).
PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops = 8);

/// Workspace form: zero heap traffic in the relaxation loop once `ws` has
/// warmed up. The overload above runs this one on thread_path_workspace().
PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops,
                                      PathWorkspace& ws);

/// Workspace + shared edge-exp form, for many-roots builds: `edge_exp`
/// must have been built from this graph at this horizon (DTN_CHECK).
PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops,
                                      PathWorkspace& ws,
                                      const EdgeExpTable& edge_exp);

/// The share of a graph's nodes past which resettle_subtrees declines to
/// grow the set it re-settles. A decline there runs the kernel and throws
/// the re-settle so far away: on the benchmark's MIT input, shares of 1/3
/// and below made the replay's repairs slower, and every share from 1/2
/// up matched a re-settle that never declines to within the noise. 3/4
/// still bounds a growth over nearly every node (DESIGN.md §13).
inline constexpr double kMaxResettledShare = 0.75;

/// A table from resettle_subtrees, the number of nodes it re-settled, and
/// how many of those it moved into the re-settled set after its merge
/// began (0 when every offer to a kept node fell short).
struct ResettledTable {
  PathTable table;
  std::size_t resettled = 0;
  std::size_t grown = 0;
};

/// One-step adoption test for the edge (from, to) of `table`'s graph, new
/// or sped up to `rate` and not in `table`'s tree: whether `to` may adopt
/// `from` as its parent over it on the new graph. The first such adoption
/// extends a chain that avoids the edge, i.e. `from`'s chain in `table`,
/// so the test evaluates that one candidate against `to`'s weight, and
/// fires on a tie. It never fires for the root as `to`, for an unreached
/// `from` or for a `from` at `max_hops`. Runs on `ws`' chain scratch.
bool adoption_fires(const PathTable& table, NodeId from, NodeId to,
                    double rate, int max_hops, PathWorkspace& ws);

/// Subtree-local repair: the table compute_opportunistic_paths would build
/// for old.root() on `graph`, where `old` was built at `max_hops` on a
/// graph that differs from `graph` only in the undirected edges `changed`
/// (new rates, new edges or removed edges). `edge_exp` must match `graph`.
///
/// Let D be the subtrees in `old` under the changed tree edges (their
/// child ends) and under `seeds`, which may be any non-root nodes. Every
/// entry outside D is kept, and D is re-settled by the kernel's own
/// relaxations, merged with a replay of the kept nodes next to D in
/// (weight desc, id asc) order. That replay is the kernel's pop order
/// when every node's weight is strictly below its parent's, so the table
/// equals the kernel's, field for field, as long as no kept entry
/// changes. Whether a changed edge got slower or faster does not matter.
///
/// When a node u of D offers a kept node k that has not popped yet at
/// least k's weight, D grows instead: k and every kept node below it in
/// `old` join D with reset entries (none of them has popped: they rank
/// after u), take again, in pop order, the offers of every neighbour that
/// popped before them (kept, in D, and u last), and their kept neighbours
/// still to pop are merged into the replay of kept nodes. Returns nullopt,
/// and the caller must run the kernel, when one of these fails:
///   * strict chains: in `old`, every reached node's weight is strictly
///     below its parent's (saturated weights tie at 1.0, for example);
///   * changed kept edges: across each changed edge between two kept
///     nodes, the one that pops first offers the other strictly less
///     than its weight;
///   * growth: the pops so far ran strictly down the (weight desc, id
///     asc) order, which makes it their pop order and ranks the root
///     before all of them, and D stays within kMaxResettledShare of the
///     nodes.
/// Every relaxation it evaluates runs the kernel's probability and
/// relaxation checks. Seeding the `to` end of each faster off-tree edge
/// whose adoption_fires turns the changed-edge decline into a re-settle.
std::optional<ResettledTable> resettle_subtrees(
    const ContactGraph& graph, const PathTable& old, int max_hops,
    const std::vector<std::pair<NodeId, NodeId>>& changed,
    const std::vector<NodeId>& seeds, PathWorkspace& ws,
    const EdgeExpTable& edge_exp);

/// The legacy construction: embedded rate chains copied on every
/// relaxation, allocating hypoexp evaluation. Kept as the bit-exactness
/// oracle that the path tests, `dtnd --audit` and bench_paths compare the
/// construction above against, and as bench_paths' speedup denominator;
/// not a production path.
PathTable compute_opportunistic_paths_reference(const ContactGraph& graph,
                                                NodeId root, Time horizon,
                                                int max_hops = 8);

/// Brute-force exact maximum-weight simple path search (exponential; for
/// testing the Dijkstra construction on small graphs only).
double brute_force_best_weight(const ContactGraph& graph, NodeId from,
                               NodeId to, Time horizon, int max_hops = 8);

}  // namespace dtn
