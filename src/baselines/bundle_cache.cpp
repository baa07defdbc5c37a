#include "baselines/bundle_cache.h"

#include <algorithm>

#include "graph/ncl.h"

namespace dtn {
namespace {

/// Share of the maximum centrality a node needs to admit pass-by data.
constexpr double kCentralityAdmissionFraction = 0.25;

}  // namespace

BundleCacheScheme::BundleCacheScheme(FloodingConfig config)
    : FloodingSchemeBase(std::move(config)) {
  centrality_.assign(static_cast<std::size_t>(node_count()), 0.0);
}

double BundleCacheScheme::centrality(NodeId node) const {
  return centrality_.at(static_cast<std::size_t>(node));
}

void BundleCacheScheme::on_maintenance(SimServices& services) {
  FloodingSchemeBase::on_maintenance(services);
  const AllPairsPaths& paths = services.paths();
  if (paths.empty()) return;
  max_centrality_ = 0.0;
  for (NodeId i = 0; i < paths.node_count() && i < node_count(); ++i) {
    centrality_[static_cast<std::size_t>(i)] = ncl_metric(paths.table(i));
    max_centrality_ =
        std::max(max_centrality_, centrality_[static_cast<std::size_t>(i)]);
  }
}

void BundleCacheScheme::on_response_relayed(SimServices& services, NodeId relay,
                                            const Query& query) {
  try_cache(services, relay, services.data(query.data));
}

bool BundleCacheScheme::admission_allowed(SimServices& services, NodeId node,
                                          const DataItem& incoming) {
  (void)services;
  (void)incoming;
  if (max_centrality_ <= 0.0) return false;  // no contact knowledge yet
  return centrality(node) >= kCentralityAdmissionFraction * max_centrality_;
}

std::vector<DataId> BundleCacheScheme::eviction_order(SimServices& services,
                                                      NodeId node,
                                                      const DataItem& incoming) {
  // Utility = popularity x centrality; the node factor is common to all
  // entries at this node, so the order reduces to popularity — but the
  // incoming comparison keeps the centrality factor for clarity.
  const double c = centrality(node);
  const double incoming_utility = popularity_of(services, node, incoming.id) * c;
  const auto& entries = state(node).entries;
  std::vector<std::pair<double, DataId>> ranked;
  ranked.reserve(entries.size());
  for (const auto& [id, entry] : entries) {
    const double u = popularity_of(services, node, id) * c;
    if (u <= incoming_utility) ranked.emplace_back(u, id);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<DataId> order;
  order.reserve(ranked.size());
  for (const auto& [u, id] : ranked) order.push_back(id);
  return order;
}

}  // namespace dtn
