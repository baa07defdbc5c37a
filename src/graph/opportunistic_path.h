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
// plus the parent pointer; the full hop-rate chain of any node is
// materialized on demand by walking the parent chain into a caller-owned
// scratch buffer. This keeps the all-pairs footprint at O(n²) doubles
// (instead of O(n²·hops)) and makes the Dijkstra inner loop allocation-free
// while producing bit-identical tables — the scratch buffer reproduces the
// exact vector the embedded-rates layout used to hand hypoexp_cdf.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/contact_graph.h"
#include "graph/hypoexp.h"

namespace dtn {

/// Which construction of the single-source tables to run. kFast is the
/// production engine; kReference re-runs the legacy allocating construction
/// (embedded per-entry rate vectors, fresh copy per relaxation) and exists
/// as the oracle for the golden equality tests and the same-host speedup
/// ratio in bench_paths. Both produce bit-identical tables.
enum class PathEngine {
  kFast,
  kReference,
};

/// Per-thread scratch for the path engine: the candidate rate chain being
/// evaluated, the hypoexponential evaluator's buffers, and the shared-
/// prefix closed-form evaluator. Reuse across calls (one workspace per
/// thread) amortizes all allocations away; results never depend on the
/// workspace's history.
struct PathWorkspace {
  std::vector<double> chain;
  HypoexpWorkspace hypoexp;
  HypoexpAppendEvaluator append;
};

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
/// warmed up. The allocating overload is a thin wrapper over this one.
PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops,
                                      PathWorkspace& ws);

/// Workspace + shared edge-exp form, for many-roots builds: `edge_exp`
/// must have been built from this graph at this horizon (DTN_CHECK).
PathTable compute_opportunistic_paths(const ContactGraph& graph, NodeId root,
                                      Time horizon, int max_hops,
                                      PathWorkspace& ws,
                                      const EdgeExpTable& edge_exp);

/// The legacy construction (PathEngine::kReference): embedded rate chains
/// copied on every relaxation, allocating hypoexp evaluation. Kept as the
/// bit-exactness oracle and the speedup denominator; not a production path.
PathTable compute_opportunistic_paths_reference(const ContactGraph& graph,
                                                NodeId root, Time horizon,
                                                int max_hops = 8);

/// Brute-force exact maximum-weight simple path search (exponential; for
/// testing the Dijkstra construction on small graphs only).
double brute_force_best_weight(const ContactGraph& graph, NodeId from,
                               NodeId to, Time horizon, int max_hops = 8);

}  // namespace dtn
