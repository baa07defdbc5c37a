#include "graph/all_pairs.h"

#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/instrument.h"
#include "common/parallel.h"
#include "graph/hypoexp.h"

namespace dtn {

AllPairsPaths::AllPairsPaths(const ContactGraph& graph, Time horizon,
                             int max_hops, int threads, PathEngine engine) {
  DTN_SCOPED_TIMER(kAllPairs);
  AllPairsBuild build(graph, horizon, max_hops, engine);
  parallel_for(threads, build.root_count(),
               [&](std::size_t root) { build.build_root(root); });
  *this = std::move(build).finish();
}

AllPairsPaths::AllPairsPaths(Time horizon, std::vector<PathTable> tables)
    : tables_(std::move(tables)), horizon_(horizon) {}

AllPairsBuild::AllPairsBuild(const ContactGraph& graph, Time horizon,
                             int max_hops, PathEngine engine)
    : graph_(&graph),
      horizon_(horizon),
      max_hops_(max_hops),
      engine_(engine),
      // The 1 - e^{-rate * horizon} terms are shared by every root: one exp
      // per edge here instead of one per relaxation per root.
      edge_exp_(engine == PathEngine::kFast
                    ? build_edge_exp_table(graph, horizon)
                    : EdgeExpTable{}),
      slots_(static_cast<std::size_t>(graph.node_count())) {}

void AllPairsBuild::build_root(std::size_t root) {
  DTN_CHECK(root < slots_.size(), "all-pairs build root out of range");
  const NodeId id = static_cast<NodeId>(root);
  if (engine_ == PathEngine::kReference) {
    slots_[root].emplace(compute_opportunistic_paths_reference(
        *graph_, id, horizon_, max_hops_));
  } else {
    slots_[root].emplace(compute_opportunistic_paths(
        *graph_, id, horizon_, max_hops_, thread_path_workspace(), edge_exp_));
  }
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
