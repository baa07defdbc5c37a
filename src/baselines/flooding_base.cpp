#include "baselines/flooding_base.h"

#include <algorithm>
#include <stdexcept>

namespace dtn {

FloodingSchemeBase::FloodingSchemeBase(FloodingConfig config)
    : config_(std::move(config)) {
  if (config_.buffer_capacity.empty()) {
    throw std::invalid_argument("per-node buffer capacities required");
  }
  nodes_.resize(config_.buffer_capacity.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (config_.buffer_capacity[i] < 0) {
      throw std::invalid_argument("negative buffer capacity");
    }
    nodes_[i].buffer = CacheBuffer(config_.buffer_capacity[i]);
  }
}

void FloodingSchemeBase::on_data_generated(SimServices& services,
                                           const DataItem& item) {
  // Pull-only schemes: data stays at the source until queried.
  (void)services;
  (void)item;
}

bool FloodingSchemeBase::holds_data(SimServices& services, NodeId node,
                                    DataId data) const {
  const DataItem& item = services.data(data);
  if (!item.alive(services.now())) return false;
  if (item.source == node) return true;
  return state(node).entries.contains(data);
}

double FloodingSchemeBase::popularity_of(SimServices& services, NodeId node,
                                         DataId data) const {
  const auto& history = state(node).history;
  const auto it = history.find(data);
  if (it == history.end()) return 0.0;
  return it->second.popularity(services.now(), services.data(data).expires);
}

bool FloodingSchemeBase::node_caches(NodeId node, DataId data) const {
  return state(node).entries.contains(data);
}

bool FloodingSchemeBase::check_invariants(const DataRegistry& registry) const {
  for (NodeId node = 0; node < node_count(); ++node) {
    const NodeState& ns = state(node);
    if (ns.buffer.used() > ns.buffer.capacity()) return false;
    Bytes entry_bytes = 0;
    for (const auto& [id, entry] : ns.entries) {
      if (!ns.buffer.contains(id)) return false;
      if (ns.buffer.size_of(id) != entry.size) return false;
      if (registry.get(id).size != entry.size) return false;
      entry_bytes += entry.size;
    }
    if (entry_bytes != ns.buffer.used()) return false;
  }
  return true;
}

void FloodingSchemeBase::note_query_seen(SimServices& services, NodeId node,
                                         const Query& query) {
  NodeState& ns = state(node);
  if (ns.seen_queries.contains(query.id)) return;
  ns.seen_queries.insert(query.id);
  ns.seen_order.push_back(query.id);
  while (ns.seen_order.size() > kMaxTrackedQueries) {
    const QueryId evicted = ns.seen_order.front();
    ns.seen_order.pop_front();
    ns.seen_queries.erase(evicted);
    ns.responded.erase(evicted);
  }
  ns.history[query.data].record_request(query.issued);
  (void)services;
}

std::vector<DataId> FloodingSchemeBase::eviction_order(SimServices& services,
                                                       NodeId node,
                                                       const DataItem& incoming) {
  (void)services;
  (void)incoming;
  // LRU: least recently accessed first.
  const NodeState& ns = state(node);
  std::vector<DataId> order;
  order.reserve(ns.entries.size());
  for (const auto& [id, entry] : ns.entries) order.push_back(id);
  std::sort(order.begin(), order.end(), [&](DataId x, DataId y) {
    const auto& ex = ns.entries.at(x);
    const auto& ey = ns.entries.at(y);
    if (ex.last_access != ey.last_access) return ex.last_access < ey.last_access;
    return x < y;
  });
  return order;
}

bool FloodingSchemeBase::try_cache(SimServices& services, NodeId node,
                                   const DataItem& item) {
  NodeState& ns = state(node);
  if (ns.entries.contains(item.id)) return true;  // already cached
  if (item.size > ns.buffer.capacity()) return false;
  if (!admission_allowed(services, node, item)) return false;

  if (!ns.buffer.fits(item.size)) {
    const std::vector<DataId> order = eviction_order(services, node, item);
    for (DataId victim : order) {
      if (ns.buffer.fits(item.size)) break;
      ns.buffer.erase(victim);
      ns.entries.erase(victim);
      ++evictions_;
      services.count_replacement(1);
    }
  }
  if (!ns.buffer.fits(item.size)) return false;
  const bool inserted = ns.buffer.insert(item.id, item.size);
  if (inserted) {
    ns.entries[item.id] =
        CachedEntry{item.size, services.now(), services.now()};
  }
  return inserted;
}

void FloodingSchemeBase::on_query(SimServices& services, const Query& query) {
  note_query_seen(services, query.requester, query);
  if (holds_data(services, query.requester, query.data)) {
    services.deliver(query);
    on_delivered(services, query);
    return;
  }
  state(query.requester).flood.push_back(FloodCopy{query});
}

void FloodingSchemeBase::maybe_respond(SimServices& services, NodeId node,
                                       const Query& query) {
  const Time now = services.now();
  if (!query.alive(now)) return;
  NodeState& ns = state(node);
  if (ns.responded.contains(query.id)) return;
  if (!holds_data(services, node, query.data)) return;
  ns.responded.insert(query.id);

  // Refresh recency for LRU-style policies.
  if (auto it = ns.entries.find(query.data); it != ns.entries.end()) {
    it->second.last_access = now;
  }
  ns.responses.push_back(ResponseBundle{query, services.data(query.data).size});
}

void FloodingSchemeBase::transfer_direction(SimServices& services, NodeId from,
                                            NodeId to, LinkBudget& budget) {
  const Time now = services.now();
  NodeState& src = state(from);
  NodeState& dst = state(to);

  // ---- 1. Responses ride the gradient to the requester. ----
  {
    std::vector<ResponseBundle> kept;
    kept.reserve(src.responses.size());
    for (auto& response : src.responses) {
      const Query& q = response.query;
      if (!q.alive(now) || !services.data(q.data).alive(now)) continue;
      if (to == q.requester) {
        if (budget.consume(response.size)) {
          services.count_bytes(response.size);
          services.deliver(q);
          on_delivered(services, q);
          continue;
        }
        kept.push_back(std::move(response));
        continue;
      }
      const double w_to = services.path_weight(to, q.requester);
      const double w_from = services.path_weight(from, q.requester);
      if (w_to > w_from && budget.consume(response.size)) {
        services.count_bytes(response.size);
        on_response_relayed(services, to, q);
        dst.responses.push_back(std::move(response));
        continue;
      }
      kept.push_back(std::move(response));
    }
    src.responses = std::move(kept);
  }

  // ---- 2. Queries: single copy riding the gradient to the source. ----
  {
    std::vector<FloodCopy> kept;
    kept.reserve(src.flood.size());
    for (auto& copy : src.flood) {
      const Query& q = copy.query;
      if (!q.alive(now)) continue;

      // Direct encounter with a holder answers the query on the spot,
      // whatever the gradient says.
      if (holds_data(services, to, q.data)) {
        if (budget.consume(kQueryBytes)) {
          services.count_bytes(kQueryBytes);
          note_query_seen(services, to, q);
          maybe_respond(services, to, q);
          continue;  // the query found its target; copy consumed
        }
        kept.push_back(std::move(copy));
        continue;
      }

      const NodeId source = services.data(q.data).source;
      const double w_to = services.path_weight(to, source);
      const double w_from = services.path_weight(from, source);
      if (w_to > w_from && budget.consume(kQueryBytes)) {
        services.count_bytes(kQueryBytes);
        note_query_seen(services, to, q);
        dst.flood.push_back(std::move(copy));
        continue;  // moved one hop closer to the source
      }
      kept.push_back(std::move(copy));
    }
    src.flood = std::move(kept);
  }
}

void FloodingSchemeBase::on_contact(SimServices& services, NodeId a, NodeId b,
                                    LinkBudget& budget) {
  prune_node(services, a);
  prune_node(services, b);
  transfer_direction(services, a, b, budget);
  transfer_direction(services, b, a, budget);
}

void FloodingSchemeBase::prune_node(SimServices& services, NodeId node) {
  const Time now = services.now();
  NodeState& ns = state(node);
  for (auto it = ns.entries.begin(); it != ns.entries.end();) {
    if (!services.data(it->first).alive(now)) {
      ns.buffer.erase(it->first);
      it = ns.entries.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(ns.flood, [&](const FloodCopy& c) { return !c.query.alive(now); });
  std::erase_if(ns.responses,
                [&](const ResponseBundle& r) { return !r.query.alive(now); });
  for (auto it = ns.history.begin(); it != ns.history.end();) {
    if (!services.data(it->first).alive(now)) {
      it = ns.history.erase(it);
    } else {
      ++it;
    }
  }
}

void FloodingSchemeBase::on_maintenance(SimServices& services) {
  for (NodeId node = 0; node < node_count(); ++node) prune_node(services, node);
}

std::size_t FloodingSchemeBase::cached_copies(Time now) const {
  std::size_t count = 0;
  for (const auto& ns : nodes_) count += ns.entries.size();
  (void)now;
  return count;
}

Bytes FloodingSchemeBase::cached_bytes(Time now) const {
  Bytes total = 0;
  for (const auto& ns : nodes_) total += ns.buffer.used();
  (void)now;
  return total;
}

}  // namespace dtn
