// All-pairs shortest opportunistic paths.
//
// Because contacts are symmetric, the weight of the shortest opportunistic
// path from u to v equals the weight from v to u, and one single-source
// table rooted at v answers "how well can anyone reach v". Schemes use
// these tables for (a) gradient forwarding towards central nodes, (b)
// routing replies back to requesters, and (c) the path-weight variant of
// the probabilistic response (Sec. V-C).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.h"
#include "graph/contact_graph.h"
#include "graph/opportunistic_path.h"

namespace dtn {

class AllPairsPaths {
 public:
  AllPairsPaths() = default;

  /// Computes one PathTable per root: runs an AllPairsBuild's roots on the
  /// shared thread pool (`threads` follows resolve_threads semantics:
  /// 0 = hardware_concurrency, 1 = serial). Each table is written into its
  /// preallocated slot, so the result is bit-identical for every thread
  /// count — and, by the golden test, for either engine
  /// (`PathEngine::kReference` re-runs the legacy allocating construction;
  /// production callers never pass it).
  AllPairsPaths(const ContactGraph& graph, Time horizon, int max_hops = 8,
                int threads = 0, PathEngine engine = PathEngine::kFast);

  NodeId node_count() const { return static_cast<NodeId>(tables_.size()); }
  bool empty() const { return tables_.empty(); }
  Time horizon() const { return horizon_; }

  /// Table rooted at `root`: entry(u).weight is p_{u,root}(horizon).
  const PathTable& table(NodeId root) const;

  /// Weight of the shortest opportunistic path from `from` to `to`
  /// within the construction horizon. 1.0 when from == to.
  double weight(NodeId from, NodeId to) const;

  /// Weight of the same path re-evaluated at a different time budget
  /// (used for p_CR(T_q - t_0)). Falls back to 0 when unreachable.
  double weight_at(NodeId from, NodeId to, Time budget) const;

  /// Batched weight_at: evaluates every (from, to) pair at `budget` into
  /// `out[i]` (resized to match). One destination table, one scratch chain,
  /// one hypoexp workspace for the whole sweep — this is the form
  /// weight_at-heavy metric loops should use. out[i] is bit-identical to
  /// weight_at(from_list[i], to, budget).
  void weights_at(const std::vector<NodeId>& from_list, NodeId to, Time budget,
                  std::vector<double>& out) const;

 private:
  friend class AllPairsBuild;
  AllPairsPaths(Time horizon, std::vector<PathTable> tables);

  std::vector<PathTable> tables_;
  Time horizon_ = 0.0;
};

/// One all-pairs build, split into per-root tasks so that a caller can run
/// them inside a larger pool batch: the simulator's lanes build a tick's
/// roots beside their cells' replays (DESIGN.md §12). AllPairsPaths'
/// constructor runs the same tasks as a batch of their own. The build reads
/// `graph`, which must outlive it.
class AllPairsBuild {
 public:
  /// Sizes one slot per root and, for the fast engine, computes the edge
  /// 1 - e^{-rate * horizon} terms that every root shares.
  AllPairsBuild(const ContactGraph& graph, Time horizon, int max_hops,
                PathEngine engine);

  // Pool tasks hold its address while they build roots.
  AllPairsBuild(const AllPairsBuild&) = delete;
  AllPairsBuild& operator=(const AllPairsBuild&) = delete;

  std::size_t root_count() const { return slots_.size(); }

  /// Builds `root`'s table into its slot on the calling thread's workspace.
  /// Distinct roots may run concurrently: each reads only the graph and the
  /// edge terms, and writes only its own slot.
  void build_root(std::size_t root);

  /// The tables, once every root is built (DTN_CHECK).
  AllPairsPaths finish() &&;

 private:
  const ContactGraph* graph_;
  Time horizon_;
  int max_hops_;
  PathEngine engine_;
  EdgeExpTable edge_exp_;
  std::vector<std::optional<PathTable>> slots_;
};

}  // namespace dtn
