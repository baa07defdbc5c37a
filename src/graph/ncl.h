// Network Central Location (NCL) selection — Sec. IV of the paper.
//
// The metric of node i (Eq. 3) is the average, over all other nodes j, of
// the weight of the shortest opportunistic path from j to i within time T:
// the probability that a random node can reach i in time. The network
// administrator computes the metric during the warm-up period and selects
// the top K nodes as central nodes; the selection then stays fixed for the
// whole data-access phase (contact rates are long-term stable).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "graph/contact_graph.h"
#include "graph/opportunistic_path.h"

namespace dtn {

/// Kept only because perfbench/harness.cpp passes it to select_ncls.
enum class MetricEngine { kFast };

/// Kept only because perfbench/harness.cpp passes it to select_ncls.
struct SparseMetricConfig {};

/// NCL metric C_i of the table's root (Eq. 3): the mean, over every other
/// node j in ascending id order, of p_ji(T) from `table`, which must be the
/// root's table (p_ji = p_ij, contacts being symmetric). 0 below two nodes.
/// Every Eq. 3 value outside the frozen NclCachingSchemeReference is this
/// fold, so metrics computed from tables built or repaired at different
/// times compare bit for bit.
double ncl_metric(const PathTable& table);

/// The `k` nodes with the highest metric, highest first, ties broken
/// towards the lower node id; min(k, metric.size()) of them.
std::vector<NodeId> top_by_metric(const std::vector<double>& metric,
                                  std::size_t k);

/// NCL metric C_i for every node (Eq. 3). Because contacts are symmetric,
/// p_ji = p_ij, so one single-source computation per node suffices. The
/// per-root computations are independent and run on the shared thread pool
/// (`threads`: 0 = hardware_concurrency, 1 = serial); each metric is
/// written to its own index, so results are identical for any thread count.
std::vector<double> ncl_metrics(const ContactGraph& graph, Time horizon,
                                int max_hops = 8, int threads = 0);

/// The outcome of NCL selection.
struct NclSelection {
  /// Central node ids, highest metric first; size min(K, N).
  std::vector<NodeId> central_nodes;
  /// Metric value per node id (size N), for validation and reporting.
  std::vector<double> metric;

  bool is_central(NodeId node) const;
  /// Index of `node` within central_nodes, or -1.
  int central_index(NodeId node) const;
};

/// Selects the top `k` nodes by NCL metric (top_by_metric over
/// ncl_metrics). The two trailing parameters are ignored; they
/// are kept only because perfbench/harness.cpp passes them.
NclSelection select_ncls(const ContactGraph& graph, Time horizon, int k,
                         int max_hops = 8, int threads = 0,
                         MetricEngine = MetricEngine::kFast,
                         const SparseMetricConfig& = {});

/// Adaptive choice of the time budget T (Sec. IV-B): "inappropriate values
/// of T will make C_i close to 0 or 1 ... different values of T are used
/// adaptively to ensure the differentiation of the NCL selection metric".
/// Bisects T until the median metric is close to `target_median`.
/// Returns a horizon in [min_horizon, max_horizon].
Time calibrate_horizon(const ContactGraph& graph,
                       double target_median = 0.3,
                       Time min_horizon = 60.0,
                       Time max_horizon = 90.0 * 86400.0,
                       int max_hops = 8, int threads = 0);

}  // namespace dtn
