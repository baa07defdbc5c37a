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
/// place, so the heap never holds a stale entry. `chain` and `hypoexp`
/// serve rates_to_root and hypoexp_cdf. A workspace carries capacity,
/// never results: reusing one across calls cannot change a table. Take it
/// from thread_path_workspace() so each thread allocates it once; sharing
/// one across concurrent calls is a data race.
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
  static constexpr std::int32_t kUnreached = -1;
  static constexpr std::int32_t kSettled = -2;

  std::vector<double> chain;
  HypoexpWorkspace hypoexp;
  HypoexpChainTable chains;
  std::vector<double> edge_term;
  std::vector<QueueItem> heap;
  std::vector<std::int32_t> slot_of;
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

  double weight(NodeId node) const { return entry(node).weight; }
  bool reachable(NodeId node) const { return entry(node).weight > 0.0; }

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
