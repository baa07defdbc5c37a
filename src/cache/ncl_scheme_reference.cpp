#include "cache/ncl_scheme_reference.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"

namespace dtn {

NclCachingSchemeReference::NclCachingSchemeReference(NclSchemeConfig config)
    : config_(std::move(config)) {
  if (config_.central_nodes.empty()) {
    throw std::invalid_argument("NCL scheme needs at least one central node");
  }
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
  for (NodeId c : config_.central_nodes) {
    if (c < 0 || static_cast<std::size_t>(c) >= nodes_.size()) {
      throw std::invalid_argument("central node id out of range");
    }
  }
}

void NclCachingSchemeReference::on_start(SimServices& services) { (void)services; }

bool NclCachingSchemeReference::is_central(NodeId node) const {
  return std::find(config_.central_nodes.begin(), config_.central_nodes.end(),
                   node) != config_.central_nodes.end();
}

double NclCachingSchemeReference::popularity_of(SimServices& services, NodeId node,
                                       DataId data) const {
  const auto& history = state(node).history;
  const auto it = history.find(data);
  if (it == history.end()) return 0.0;
  return it->second.popularity(services.now(), services.data(data).expires);
}

bool NclCachingSchemeReference::holds_data(NodeId node, DataId data, Time now) const {
  const NodeState& ns = state(node);
  const auto it = ns.entries.find(data);
  return it != ns.entries.end() && ns.buffer.contains(data) &&
         it->second.size > 0 && now >= 0.0;  // entry presence implies liveness
}

bool NclCachingSchemeReference::node_caches(NodeId node, DataId data) const {
  return state(node).entries.contains(data);
}

bool NclCachingSchemeReference::check_invariants(const DataRegistry& registry) const {
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const NodeState& ns = nodes_[node];
    if (ns.buffer.used() > ns.buffer.capacity()) return false;
    Bytes entry_bytes = 0;
    for (const auto& [id, entry] : ns.entries) {
      if (!ns.buffer.contains(id)) return false;
      if (ns.buffer.size_of(id) != entry.size) return false;
      if (registry.get(id).size != entry.size) return false;
      entry_bytes += entry.size;
    }
    if (entry_bytes != ns.buffer.used()) return false;
    // Note: a push token's holder *usually* caches the item, but cache
    // replacement may migrate the entry to a peer while the token stays —
    // the token then re-establishes a copy at its next forwarding step, so
    // token/entry co-location is intentionally NOT an invariant.
  }
  return true;
}

std::size_t NclCachingSchemeReference::push_tokens_in_flight() const {
  std::size_t count = 0;
  for (const auto& ns : nodes_) count += ns.push_tokens.size();
  return count;
}

void NclCachingSchemeReference::on_data_generated(SimServices& services,
                                         const DataItem& item) {
  NodeState& source = state(item.source);
  // The source holds its item natively for the item's lifetime; push tokens
  // carry copies towards every central node. If the source *is* a central
  // node, its copy settles immediately.
  for (NodeId c : config_.central_nodes) {
    if (c == item.source) {
      if (source.buffer.insert(item.id, item.size)) {
        source.entries[item.id] =
            make_entry(services, item.source, item.size, c, false);
      }
      continue;
    }
    source.push_tokens.push_back(PushToken{item.id, c});
  }
}

void NclCachingSchemeReference::note_query_seen(SimServices& services, NodeId node,
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

void NclCachingSchemeReference::maybe_respond(SimServices& services, NodeId node,
                                     const Query& query) {
  const Time now = services.now();
  if (!query.alive(now)) return;
  NodeState& ns = state(node);
  if (ns.responded.contains(query.id)) return;

  const DataItem& item = services.data(query.data);
  if (!item.alive(now)) return;
  const bool cached = holds_data(node, query.data, now);
  const bool native = item.source == node;
  if (!cached && !native) return;  // no copy to return; no decision yet

  ns.responded.insert(query.id);

  // Refresh recency / GDS value for the traditional replacement policies.
  if (auto it = ns.entries.find(query.data); it != ns.entries.end()) {
    it->second.last_access = now;
    it->second.h_value =
        ns.gds_l + popularity_of(services, node, query.data) /
                       (static_cast<double>(it->second.size) / (1 << 20));
  }

  double probability = 1.0;
  switch (config_.response_mode) {
    case ResponseMode::kAlways:
      probability = 1.0;
      break;
    case ResponseMode::kSigmoid:
      probability = config_.sigmoid.probability(query.remaining(now),
                                                query.time_constraint());
      break;
    case ResponseMode::kPathWeight:
      probability = services.paths().empty()
                        ? 0.0
                        : services.paths().weight_at(node, query.requester,
                                                     query.remaining(now));
      break;
  }
  // The reply probability feeding the Bernoulli draw must be a genuine
  // probability whichever response mode produced it (Eq. 4 / path weight).
  DTN_CHECK_PROB(probability);
  if (!services.rng().bernoulli(probability)) return;

  ns.responses.push_back(ResponseBundle{query, item.size});
  ++responses_sent_;
}

void NclCachingSchemeReference::on_query(SimServices& services, const Query& query) {
  NodeId requester = query.requester;
  note_query_seen(services, requester, query);

  // Local hit: the requester happens to cache the data already.
  if (holds_data(requester, query.data, services.now())) {
    services.deliver(query);
    return;
  }

  // Multicast one routed copy per central node (Sec. V-B).
  NodeState& ns = state(requester);
  for (NodeId c : config_.central_nodes) {
    QueryCopy copy{query, c, /*broadcast=*/false};
    if (c == requester) {
      copy.broadcast = true;  // the requester is a central node itself
      maybe_respond(services, requester, query);
    }
    ns.query_copies.push_back(std::move(copy));
  }
}

void NclCachingSchemeReference::transfer_direction(SimServices& services, NodeId from,
                                          NodeId to, LinkBudget& budget) {
  const Time now = services.now();
  NodeState& src = state(from);
  NodeState& dst = state(to);

  // ---- 1. Responses: cached data returning to requesters. ----
  {
    std::vector<ResponseBundle> kept;
    kept.reserve(src.responses.size());
    for (auto& response : src.responses) {
      const Query& q = response.query;
      if (!q.alive(now) || !services.data(q.data).alive(now)) continue;  // drop
      if (to == q.requester) {
        if (budget.consume(response.size)) {
          services.count_bytes(response.size);
          services.deliver(q);
          ++counters_.responses_delivered;
          continue;  // delivered: bundle consumed
        }
        kept.push_back(std::move(response));
        continue;
      }
      const double w_to = services.path_weight(to, q.requester);
      const double w_from = services.path_weight(from, q.requester);
      if (w_to > w_from && budget.consume(response.size)) {
        services.count_bytes(response.size);
        dst.responses.push_back(std::move(response));
        continue;  // moved
      }
      kept.push_back(std::move(response));
    }
    src.responses = std::move(kept);
  }

  // ---- 2. Query copies: routed towards centrals / broadcast in NCLs. ----
  {
    std::vector<QueryCopy> kept;
    kept.reserve(src.query_copies.size());
    for (auto& copy : src.query_copies) {
      const Query& q = copy.query;
      DTN_CHECK(q.alive(now), "on_contact's prune left an expired query copy");

      if (!copy.broadcast) {
        // Routed phase: ride the gradient towards the central node.
        if (to == copy.central) {
          if (budget.consume(kQueryBytes)) {
            services.count_bytes(kQueryBytes);
            note_query_seen(services, to, q);
            maybe_respond(services, to, q);
            copy.broadcast = true;  // central starts the NCL broadcast
            ++counters_.queries_reached_central;
            dst.query_copies.push_back(std::move(copy));
            continue;
          }
        } else if (services.path_weight(to, copy.central) >
                       services.path_weight(from, copy.central) &&
                   budget.consume(kQueryBytes)) {
          services.count_bytes(kQueryBytes);
          note_query_seen(services, to, q);
          maybe_respond(services, to, q);
          dst.query_copies.push_back(std::move(copy));
          continue;
        }
        kept.push_back(std::move(copy));
        continue;
      }

      // Broadcast phase: replicate to caching members of this NCL.
      const bool member =
          to == copy.central ||
          std::any_of(dst.entries.begin(), dst.entries.end(),
                      [&](const auto& kv) {
                        return kv.second.central == copy.central;
                      });
      if (member && !dst.seen_queries.contains(q.id) &&
          budget.consume(kQueryBytes)) {
        services.count_bytes(kQueryBytes);
        note_query_seen(services, to, q);
        maybe_respond(services, to, q);
        dst.query_copies.push_back(copy);  // replicate, keep local copy
      }
      kept.push_back(std::move(copy));
    }
    src.query_copies = std::move(kept);
  }

  // ---- 3. Push tokens: data copies towards central nodes. ----
  {
    std::vector<PushToken> kept;
    kept.reserve(src.push_tokens.size());
    for (std::size_t ti = 0; ti < src.push_tokens.size(); ++ti) {
      const PushToken token = src.push_tokens[ti];
      const DataItem& item = services.data(token.data);
      DTN_CHECK(item.alive(now), "on_contact's prune left an expired token");
      const double w_to = services.path_weight(to, token.central);
      const double w_from = services.path_weight(from, token.central);
      if (!(w_to > w_from)) {
        kept.push_back(token);
        continue;
      }

      auto release_source_copy = [&]() {
        // The relay deletes its own copy after forwarding (Sec. V-A) —
        // unless another token (already kept or still pending in this
        // loop) needs it, or it has settled here.
        const auto it = src.entries.find(token.data);
        if (it == src.entries.end() || !it->second.in_transit) return;
        const bool kept_needs = std::any_of(
            kept.begin(), kept.end(),
            [&](const PushToken& t) { return t.data == token.data; });
        const bool pending_needs = std::any_of(
            src.push_tokens.begin() + static_cast<std::ptrdiff_t>(ti) + 1,
            src.push_tokens.end(),
            [&](const PushToken& t) { return t.data == token.data; });
        if (kept_needs || pending_needs) return;
        src.buffer.erase(token.data);
        src.entries.erase(it);
      };

      if (dst.entries.contains(token.data)) {
        // The destination already caches this item. The central case means
        // this NCL is served: the copy settles and the token completes.
        // Otherwise the token WAITS at its current holder rather than
        // piling up: each of the K copies must occupy a distinct node, or
        // the correlated gradients towards the (all well-connected)
        // central nodes would herd every token onto the same hub and
        // collapse the K per-NCL copies into one cache entry.
        if (to == token.central) {
          dst.entries[token.data].in_transit = false;
          ++counters_.tokens_settled;
          ++counters_.token_hops;
          release_source_copy();
        } else {
          kept.push_back(token);
        }
        continue;
      }

      // Traditional replacement strategies (Fig. 12) evict at insertion
      // time to admit the pushed copy; the utility strategy never evicts
      // here — a full buffer stops the push instead.
      if (!dst.buffer.fits(item.size) &&
          config_.strategy != CacheStrategy::kUtilityExchange) {
        evict_for(services, to, item);
      }

      if (dst.buffer.fits(item.size)) {
        if (!budget.consume(item.size)) {
          kept.push_back(token);  // try again at a later contact
          continue;
        }
        services.count_bytes(item.size);
        const bool inserted = dst.buffer.insert(token.data, item.size);
        DTN_CHECK(inserted, "push insert must succeed after fits() check");
        dst.entries[token.data] = make_entry(services, to, item.size,
                                             token.central, to != token.central);
        ++counters_.token_hops;
        if (to != token.central) {
          dst.push_tokens.push_back(token);
        } else {
          ++counters_.tokens_settled;
        }
        release_source_copy();
        continue;
      }

      // The next relay's buffer is full: forwarding stops here for now and
      // the data stays cached at the current relay (Fig. 5). The current
      // holder keeps serving as the temporal caching location — typically
      // in the ring around a saturated central node, which is precisely
      // how "multiple nodes at a NCL may be involved in caching". The
      // token survives, so the copy resumes migrating when a closer relay
      // with space appears (cache replacement also keeps consolidating
      // popular data inward in the meantime).
      ++counters_.tokens_stopped_full;
      if (!src.entries.contains(token.data)) {
        // The source holds only its native copy; park a cache copy here if
        // possible so the item is queryable at this NCL.
        if (src.buffer.insert(token.data, item.size)) {
          src.entries[token.data] =
              make_entry(services, from, item.size, token.central, true);
        }
      }
      kept.push_back(token);
    }
    src.push_tokens = std::move(kept);
  }
}

void NclCachingSchemeReference::run_replacement(SimServices& services, NodeId a,
                                       NodeId b, LinkBudget& budget) {
  NodeState& na = state(a);
  NodeState& nb = state(b);
  if (na.entries.empty() && nb.entries.empty()) return;

  // One exchange per NCL: each NCL holds its own copy of a data item
  // ("one copy of data is cached at each NCL", Sec. V), so copies assigned
  // to different central nodes never merge — pooling them together would
  // collapse the K per-NCL copies into one and destroy data accessibility.
  std::vector<NodeId> centrals;
  auto add_central = [&](const NodeState& ns) {
    for (const auto& [id, entry] : ns.entries) {
      if (std::find(centrals.begin(), centrals.end(), entry.central) ==
          centrals.end()) {
        centrals.push_back(entry.central);
      }
    }
  };
  add_central(na);
  add_central(nb);
  std::sort(centrals.begin(), centrals.end());  // deterministic order

  bool any_pool = false;
  for (NodeId central : centrals) {
    std::size_t duplicates = 0;
    const double weight_a = services.path_weight(a, central);
    const double weight_b = services.path_weight(b, central);

    // Same NCL, same item cached at both nodes: genuinely redundant —
    // collapse to the copy at the node nearer this central.
    {
      std::vector<DataId> shared;
      for (const auto& [id, entry] : na.entries) {
        if (entry.central != central) continue;
        auto it = nb.entries.find(id);
        if (it != nb.entries.end() && it->second.central == central) {
          shared.push_back(id);
        }
      }
      for (DataId id : shared) {
        NodeState& loser = weight_a >= weight_b ? nb : na;
        loser.buffer.erase(id);
        loser.entries.erase(id);
        ++duplicates;
      }
    }

    // Pool the two nodes' copies belonging to this NCL; merge request
    // histories (tiny control data) so both sides agree on popularity.
    std::vector<ReplacementItem> pool;
    std::unordered_map<DataId, CacheEntry> original_entries;
    auto collect = [&](NodeState& ns, bool at_a) {
      for (auto it = ns.entries.begin(); it != ns.entries.end();) {
        const DataId id = it->first;
        if (it->second.central != central) {
          ++it;
          continue;
        }
        auto ha = na.history.find(id);
        auto hb = nb.history.find(id);
        if (ha != na.history.end() && hb != nb.history.end()) {
          ha->second.merge(hb->second);
          hb->second = ha->second;
        } else if (ha != na.history.end()) {
          nb.history[id] = ha->second;
        } else if (hb != nb.history.end()) {
          na.history[id] = hb->second;
        }
        ReplacementItem ri;
        ri.id = id;
        ri.size = it->second.size;
        ri.at_a = at_a;
        ri.popularity = popularity_of(services, at_a ? a : b, id);
        pool.push_back(ri);
        original_entries.emplace(id, it->second);
        ++it;
      }
    };
    collect(na, true);
    collect(nb, false);
    if (pool.empty()) continue;
    any_pool = true;

    // Capacity available to this pool: free space plus the bytes the
    // pooled entries currently occupy at that node.
    auto pool_bytes_at = [&](bool at_a) {
      Bytes total = 0;
      for (const auto& item : pool) {
        if (item.at_a == at_a) total += item.size;
      }
      return total;
    };
    const Bytes capacity_a = na.buffer.free() + pool_bytes_at(true);
    const Bytes capacity_b = nb.buffer.free() + pool_bytes_at(false);

    ReplacementPlan plan =
        plan_replacement(pool, capacity_a, capacity_b, weight_a, weight_b,
                         config_.replacement, services.rng());

    // Apply: lift all pooled entries, then re-insert the keeps. In-place
    // keeps are free; moves cost link budget.
    std::unordered_map<DataId, ReplacementItem> by_id;
    for (const auto& item : pool) by_id.emplace(item.id, item);
    for (const auto& item : pool) {
      NodeState& holder = item.at_a ? na : nb;
      holder.buffer.erase(item.id);
      holder.entries.erase(item.id);
    }

    std::size_t moved = 0;
    std::size_t dropped = plan.dropped.size() + duplicates;
    auto restore_at_origin = [&](const ReplacementItem& item) {
      NodeState& origin = item.at_a ? na : nb;
      if (origin.buffer.insert(item.id, item.size)) {
        // Restore verbatim: an item that stays where it was keeps its
        // metadata — in particular a push-in-transit copy stays in
        // transit, so the relay still deletes it after forwarding.
        origin.entries[item.id] = original_entries.at(item.id);
        return true;
      }
      return false;
    };
    auto reinsert = [&](const std::vector<DataId>& keeps, bool to_a) {
      NodeState& target = to_a ? na : nb;
      const NodeId target_id = to_a ? a : b;
      for (DataId id : keeps) {
        const ReplacementItem& item = by_id.at(id);
        const bool moving = item.at_a != to_a;
        if (moving && !budget.consume(item.size)) {
          // No link budget to realize the move: keep it where it was.
          if (!restore_at_origin(item)) ++dropped;
          continue;
        }
        if (moving) services.count_bytes(item.size);
        if (!target.buffer.insert(id, item.size)) {
          // Should not happen (plan respects capacities); degrade gracefully.
          if (!restore_at_origin(item)) ++dropped;
          continue;
        }
        if (moving) {
          target.entries[id] =
              make_entry(services, target_id, item.size, central, false);
          ++moved;
        } else {
          target.entries[id] = original_entries.at(id);
        }
      }
    };
    reinsert(plan.keep_at_a, true);
    reinsert(plan.keep_at_b, false);

    if (moved + dropped > 0) services.count_replacement(moved + dropped);
    DTN_COUNT_N(kBufferEvictions, dropped);
  }
  if (any_pool) ++replacement_exchanges_;
}

void NclCachingSchemeReference::on_contact(SimServices& services, NodeId a, NodeId b,
                                  LinkBudget& budget) {
  prune_node_with_registry(services, a);
  prune_node_with_registry(services, b);
  transfer_direction(services, a, b, budget);
  transfer_direction(services, b, a, budget);
  if (config_.enable_replacement &&
      config_.strategy == CacheStrategy::kUtilityExchange) {
    run_replacement(services, a, b, budget);
  }
  // Buffer occupancy <= capacity after every contact event: pushes, reply
  // forwarding and the knapsack exchange all charge the same byte budget.
  DTN_CHECK_LE(state(a).buffer.used(), state(a).buffer.capacity());
  DTN_CHECK_LE(state(b).buffer.used(), state(b).buffer.capacity());
}

NclCachingSchemeReference::CacheEntry NclCachingSchemeReference::make_entry(
    SimServices& services, NodeId holder, Bytes size, NodeId central,
    bool in_transit) const {
  CacheEntry entry;
  entry.size = size;
  entry.central = central;
  entry.in_transit = in_transit;
  entry.inserted_at = services.now();
  entry.last_access = services.now();
  const NodeState& ns = state(holder);
  entry.h_value = ns.gds_l + 0.0;  // popularity 0 at insertion (footnote 3)
  return entry;
}

bool NclCachingSchemeReference::evict_for(SimServices& services, NodeId node,
                                 const DataItem& item) {
  NodeState& ns = state(node);
  if (item.size > ns.buffer.capacity()) return false;

  // Rank current entries by the active policy, cheapest victim first.
  std::vector<std::pair<double, DataId>> ranked;
  ranked.reserve(ns.entries.size());
  for (const auto& [id, entry] : ns.entries) {
    double key = 0.0;
    switch (config_.strategy) {
      case CacheStrategy::kFifo:
        key = entry.inserted_at;
        break;
      case CacheStrategy::kLru:
        key = entry.last_access;
        break;
      case CacheStrategy::kGds:
        key = entry.h_value;
        break;
      case CacheStrategy::kUtilityExchange:
        return ns.buffer.fits(item.size);  // no insertion-time eviction
    }
    ranked.emplace_back(key, id);
  }
  std::sort(ranked.begin(), ranked.end());

  std::size_t evicted = 0;
  for (const auto& [key, victim] : ranked) {
    if (ns.buffer.fits(item.size)) break;
    if (config_.strategy == CacheStrategy::kGds) ns.gds_l = key;  // aging
    ns.buffer.erase(victim);
    ns.entries.erase(victim);
    ++evicted;
  }
  if (evicted > 0) {
    services.count_replacement(evicted);
    DTN_COUNT_N(kBufferEvictions, evicted);
  }
  return ns.buffer.fits(item.size);
}

void NclCachingSchemeReference::prune_node_with_registry(SimServices& services,
                                                NodeId node) {
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
  counters_.tokens_expired +=
      std::erase_if(ns.push_tokens, [&](const PushToken& t) {
        return !services.data(t.data).alive(now);
      });
  std::erase_if(ns.query_copies,
                [&](const QueryCopy& c) { return !c.query.alive(now); });
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

void NclCachingSchemeReference::on_maintenance(SimServices& services) {
  for (NodeId node = 0; node < static_cast<NodeId>(nodes_.size()); ++node) {
    prune_node_with_registry(services, node);
  }
  if (config_.dynamic_ncl) reselect_centrals(services);
}

void NclCachingSchemeReference::reselect_centrals(SimServices& services) {
  const AllPairsPaths& paths = services.paths();
  if (paths.empty()) return;
  const NodeId n = std::min<NodeId>(paths.node_count(),
                                    static_cast<NodeId>(nodes_.size()));
  if (n < 2) return;

  // The NCL metric of Eq. 3, computed from the already-available path
  // tables: the mean weight with which the other nodes reach each node.
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    double sum = 0.0;
    for (NodeId j = 0; j < n; ++j) {
      if (j == i) continue;
      sum += paths.weight(j, i);
    }
    ranked.emplace_back(-sum / static_cast<double>(n - 1), i);
  }
  std::sort(ranked.begin(), ranked.end());

  const std::size_t k = config_.central_nodes.size();
  std::vector<NodeId> fresh;
  fresh.reserve(k);
  for (std::size_t i = 0; i < k && i < ranked.size(); ++i) {
    fresh.push_back(ranked[i].second);
  }
  if (fresh.empty() || fresh == config_.central_nodes) return;
  config_.central_nodes = std::move(fresh);

  // Re-home cached copies whose NCL no longer exists: assign each to the
  // current central its holder reaches best, so query broadcasts and
  // replacement keep finding them instead of serving a ghost NCL.
  for (NodeId holder = 0; holder < static_cast<NodeId>(nodes_.size());
       ++holder) {
    NodeState& ns = state(holder);
    if (ns.entries.empty() && ns.push_tokens.empty()) continue;
    NodeId best = config_.central_nodes.front();
    double best_weight = -1.0;
    for (NodeId c : config_.central_nodes) {
      const double w = services.path_weight(holder, c);
      if (w > best_weight) {
        best_weight = w;
        best = c;
      }
    }
    for (auto& [id, entry] : ns.entries) {
      if (!is_central(entry.central)) entry.central = best;
    }
    // Push tokens towards a dead central redirect to the holder's best
    // current central (dedup: only one token per (data, central) pair).
    for (auto& token : ns.push_tokens) {
      if (!is_central(token.central)) token.central = best;
    }
  }
}

std::size_t NclCachingSchemeReference::cached_copies(Time now) const {
  std::size_t count = 0;
  for (const auto& ns : nodes_) count += ns.entries.size();
  (void)now;  // maintenance pruning keeps entries fresh
  return count;
}

Bytes NclCachingSchemeReference::cached_bytes(Time now) const {
  Bytes total = 0;
  for (const auto& ns : nodes_) total += ns.buffer.used();
  (void)now;
  return total;
}

}  // namespace dtn
