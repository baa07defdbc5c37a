#include "graph/all_pairs.h"

#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/instrument.h"
#include "common/parallel.h"

namespace dtn {

AllPairsPaths::AllPairsPaths(const ContactGraph& graph, Time horizon,
                             int max_hops, int threads) {
  DTN_SCOPED_TIMER(kAllPairs);
  AllPairsBuild build(graph, horizon, max_hops);
  parallel_for(threads, build.root_count(),
               [&](std::size_t root) { build.build_root(root); });
  *this = std::move(build).finish();
}

AllPairsPaths::AllPairsPaths(Time horizon, std::vector<PathTable> tables)
    : tables_(std::move(tables)), horizon_(horizon) {}

AllPairsBuild::AllPairsBuild(const ContactGraph& graph, Time horizon,
                             int max_hops)
    : graph_(&graph),
      horizon_(horizon),
      max_hops_(max_hops),
      // The 1 - e^{-rate * horizon} terms are shared by every root: one exp
      // per edge here instead of one per relaxation per root.
      edge_exp_(build_edge_exp_table(graph, horizon)),
      slots_(static_cast<std::size_t>(graph.node_count())) {}

void AllPairsBuild::build_root(std::size_t root) {
  DTN_CHECK(root < slots_.size(), "all-pairs build root out of range");
  slots_[root].emplace(compute_opportunistic_paths(
      *graph_, static_cast<NodeId>(root), horizon_, max_hops_,
      thread_path_workspace(), edge_exp_));
}

AllPairsPaths AllPairsBuild::finish() && {
  std::vector<PathTable> tables;
  tables.reserve(slots_.size());
  for (std::optional<PathTable>& slot : slots_) {
    DTN_CHECK(slot.has_value(), "all-pairs build finished with a root unbuilt");
    tables.push_back(std::move(*slot));
  }
  return AllPairsPaths(horizon_, std::move(tables));
}

const PathTable& AllPairsPaths::table(NodeId root) const {
  DTN_CHECK(root >= 0 && root < node_count(), "all-pairs root out of range");
  return tables_[static_cast<std::size_t>(root)];
}

double AllPairsPaths::weight(NodeId from, NodeId to) const {
  if (from == to) return 1.0;
  return table(to).weight(from);
}

double AllPairsPaths::weight_at(NodeId from, NodeId to, Time budget) const {
  if (from == to) return 1.0;
  return table(to).weight_at(from, budget);
}

}  // namespace dtn
