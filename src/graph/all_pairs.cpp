#include "graph/all_pairs.h"

#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"
#include "common/parallel.h"
#include "graph/hypoexp.h"

namespace dtn {

AllPairsPaths::AllPairsPaths(const ContactGraph& graph, Time horizon,
                             int max_hops, int threads, PathEngine engine)
    : horizon_(horizon) {
  DTN_SCOPED_TIMER(kAllPairs);
  const std::size_t n = static_cast<std::size_t>(graph.node_count());
  // The 1 - e^{-rate * horizon} terms are shared by every root: one exp per
  // edge here instead of one per relaxation per root.
  const EdgeExpTable edge_exp =
      engine == PathEngine::kFast ? build_edge_exp_table(graph, horizon)
                                  : EdgeExpTable{};
  tables_ = parallel_map(threads, n, [&](std::size_t root) {
    if (engine == PathEngine::kReference) {
      return compute_opportunistic_paths_reference(
          graph, static_cast<NodeId>(root), horizon, max_hops);
    }
    return compute_opportunistic_paths(graph, static_cast<NodeId>(root),
                                       horizon, max_hops,
                                       thread_path_workspace(), edge_exp);
  });
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
  const auto& entry = table(to).entry(from);
  if (entry.weight <= 0.0) return 0.0;
  PathWorkspace& ws = thread_path_workspace();
  table(to).rates_to_root(from, ws.chain);
  const double w = hypoexp_cdf(ws.chain, budget, ws.hypoexp);
  DTN_CHECK_PROB(w);
  return w;
}

void AllPairsPaths::weights_at(const std::vector<NodeId>& from_list, NodeId to,
                               Time budget, std::vector<double>& out) const {
  out.resize(from_list.size());
  const PathTable& t = table(to);
  PathWorkspace& ws = thread_path_workspace();
  for (std::size_t i = 0; i < from_list.size(); ++i) {
    const NodeId from = from_list[i];
    if (from == to) {
      out[i] = 1.0;
      continue;
    }
    const auto& entry = t.entry(from);
    if (entry.weight <= 0.0) {
      out[i] = 0.0;
      continue;
    }
    t.rates_to_root(from, ws.chain);
    const double w = hypoexp_cdf(ws.chain, budget, ws.hypoexp);
    DTN_CHECK_PROB(w);
    out[i] = w;
  }
}

}  // namespace dtn
