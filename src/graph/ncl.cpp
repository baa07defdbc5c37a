#include "graph/ncl.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"
#include "common/parallel.h"

namespace dtn {

double ncl_metric(const PathTable& table) {
  const NodeId n = table.node_count();
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (NodeId j = 0; j < n; ++j) {
    if (j == table.root()) continue;
    sum += table.weight(j);
  }
  const double metric = sum / static_cast<double>(n - 1);
  // Eq. 3: the NCL metric is a mean of path weights, itself in [0, 1].
  DTN_CHECK_PROB(metric);
  return metric;
}

std::vector<NodeId> top_by_metric(const std::vector<double>& metric,
                                  std::size_t k) {
  std::vector<NodeId> order(metric.size());
  std::iota(order.begin(), order.end(), 0);
  const auto take = static_cast<std::ptrdiff_t>(std::min(k, order.size()));
  // A strict total order (ids are distinct), so the first `take` are the
  // same whichever sort produces them.
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&](NodeId a, NodeId b) {
                      const double ma = metric[static_cast<std::size_t>(a)];
                      const double mb = metric[static_cast<std::size_t>(b)];
                      if (ma != mb) return ma > mb;
                      return a < b;
                    });
  order.resize(static_cast<std::size_t>(take));
  return order;
}

std::vector<double> ncl_metrics(const ContactGraph& graph, Time horizon,
                                int max_hops, int threads) {
  const NodeId n = graph.node_count();
  std::vector<double> metrics(static_cast<std::size_t>(n), 0.0);
  if (n < 2) return metrics;
  DTN_SCOPED_TIMER(kNclMetrics);
  const EdgeExpTable edge_exp = build_edge_exp_table(graph, horizon);
  parallel_for(threads, static_cast<std::size_t>(n), [&](std::size_t root) {
    metrics[root] = ncl_metric(compute_opportunistic_paths(
        graph, static_cast<NodeId>(root), horizon, max_hops,
        thread_path_workspace(), edge_exp));
  });
  return metrics;
}

bool NclSelection::is_central(NodeId node) const {
  return central_index(node) >= 0;
}

int NclSelection::central_index(NodeId node) const {
  for (std::size_t i = 0; i < central_nodes.size(); ++i) {
    if (central_nodes[i] == node) return static_cast<int>(i);
  }
  return -1;
}

NclSelection select_ncls(const ContactGraph& graph, Time horizon, int k,
                         int max_hops, int threads, MetricEngine,
                         const SparseMetricConfig&) {
  if (k < 1) throw std::invalid_argument("k must be >= 1");
  NclSelection selection;
  selection.metric = ncl_metrics(graph, horizon, max_hops, threads);
  selection.central_nodes =
      top_by_metric(selection.metric, static_cast<std::size_t>(k));
  return selection;
}

Time calibrate_horizon(const ContactGraph& graph, double target_median,
                       Time min_horizon, Time max_horizon, int max_hops,
                       int threads) {
  if (!(target_median > 0.0) || target_median >= 1.0) {
    throw std::invalid_argument("target_median must be in (0, 1)");
  }
  if (!(min_horizon > 0.0) || max_horizon <= min_horizon) {
    throw std::invalid_argument("invalid horizon bounds");
  }
  DTN_SCOPED_TIMER(kCalibrateHorizon);
  auto median_metric = [&](Time horizon) {
    std::vector<double> m = ncl_metrics(graph, horizon, max_hops, threads);
    if (m.empty()) return 0.0;
    std::nth_element(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(m.size() / 2),
                     m.end());
    return m[m.size() / 2];
  };

  // The median is monotone non-decreasing in T: bisect in log space.
  double lo = std::log(min_horizon);
  double hi = std::log(max_horizon);
  if (median_metric(min_horizon) >= target_median) return min_horizon;
  if (median_metric(max_horizon) <= target_median) return max_horizon;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (median_metric(std::exp(mid)) < target_median) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::exp(0.5 * (lo + hi));
}

}  // namespace dtn
