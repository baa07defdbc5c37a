// SimEngine::kFast implementation. Every protocol decision, RNG draw and
// entry-map unlink and link happens in cache/ncl_scheme_reference.cpp's
// order; where state lives differs (SoA NodeStore, byte accounts, bundle
// queues compacted in place, re-linked map nodes, reusable workspaces).
// Keep the two files in lockstep or tests/engine_golden_test.cpp will fail
// on the first diverging draw.
#include "cache/ncl_scheme.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"
#include "graph/ncl.h"

namespace dtn {
namespace {

/// A queue keeps its high-water capacity between maintenance ticks; an
/// empty one gives its buffer back (shrink_to_fit is only a request), so
/// idle nodes hold no bundle storage.
template <typename T>
void release_if_empty(std::vector<T>& queue) {
  if (queue.empty()) std::vector<T>().swap(queue);
}

}  // namespace

void NclCachingScheme::ContactWorkspace::begin_contact() {
  DTN_CHECK(!active_,
            "contact workspace reuse across contacts: begin_contact before "
            "the previous contact's end_contact");
  active_ = true;
}

void NclCachingScheme::ContactWorkspace::end_contact() {
  DTN_CHECK(active_, "end_contact without a matching begin_contact");
  active_ = false;
}

void NclCachingScheme::NodeStore::resize(std::size_t n) {
  bytes.resize(n);
  entries.resize(n);
  gds_l.assign(n, 0.0);
  history.resize(n);
  push_tokens.resize(n);
  query_copies.resize(n);
  responses.resize(n);
  seen_queries.resize(n);
  responded.resize(n);
  seen_order.resize(n);
  next_expiry.assign(n, kNever);
  central_counts.resize(n);
}

NclCachingScheme::NclCachingScheme(NclSchemeConfig config)
    : config_(std::move(config)) {
  if (config_.central_nodes.empty()) {
    throw std::invalid_argument("NCL scheme needs at least one central node");
  }
  if (config_.buffer_capacity.empty()) {
    throw std::invalid_argument("per-node buffer capacities required");
  }
  store_.resize(config_.buffer_capacity.size());
  for (std::size_t i = 0; i < store_.size(); ++i) {
    if (config_.buffer_capacity[i] < 0) {
      throw std::invalid_argument("negative buffer capacity");
    }
    store_.bytes[i].capacity = config_.buffer_capacity[i];
  }
  for (NodeId c : config_.central_nodes) {
    if (c < 0 || static_cast<std::size_t>(c) >= store_.size()) {
      throw std::invalid_argument("central node id out of range");
    }
  }
  is_central_.assign(store_.size(), 0);
  for (NodeId c : config_.central_nodes) {
    is_central_[static_cast<std::size_t>(c)] = 1;
  }
}

void NclCachingScheme::on_start(SimServices& services) { (void)services; }

std::size_t NclCachingScheme::index(NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  if (node < 0 || i >= store_.size()) {
    throw std::out_of_range("node id out of range");
  }
  return i;
}

bool NclCachingScheme::is_central(NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  return node >= 0 && i < is_central_.size() && is_central_[i] != 0;
}

void NclCachingScheme::note_expiry(std::size_t node, Time expires) {
  if (expires < store_.next_expiry[node]) store_.next_expiry[node] = expires;
}

void NclCachingScheme::central_count_add(std::size_t node, NodeId central,
                                         int delta) {
  auto& counts = store_.central_counts[node];
  for (auto& [c, n] : counts) {
    if (c == central) {
      n += delta;
      DTN_CHECK_GE(n, 0);
      return;
    }
  }
  DTN_CHECK_GE(delta, 0);
  counts.emplace_back(central, delta);
}

std::int32_t NclCachingScheme::central_count(std::size_t node,
                                             NodeId central) const {
  for (const auto& [c, n] : store_.central_counts[node]) {
    if (c == central) return n;
  }
  return 0;
}

void NclCachingScheme::charge_entry(SimServices& services, std::size_t node,
                                    EntryMap::const_iterator it) {
  // CacheBuffer's contracts: positive sizes, used <= capacity.
  DTN_CHECK(it->second.size > 0, "cache entry size must be positive");
  ByteAccount& bytes = store_.bytes[node];
  bytes.used += it->second.size;
  DTN_CHECK_LE(bytes.used, bytes.capacity);
  central_count_add(node, it->second.central, +1);
  note_expiry(node, services.data(it->first).expires);
}

void NclCachingScheme::put_entry(SimServices& services, std::size_t node,
                                 DataId id, const CacheEntry& entry) {
  const auto [it, inserted] = store_.entries[node].emplace(id, entry);
  DTN_CHECK(inserted, "cache entry insert must be fresh");
  charge_entry(services, node, it);
}

void NclCachingScheme::put_entry(SimServices& services, std::size_t node,
                                 EntryMap::node_type lifted) {
  const auto result = store_.entries[node].insert(std::move(lifted));
  DTN_CHECK(result.inserted, "cache entry insert must be fresh");
  charge_entry(services, node, result.position);
}

NclCachingScheme::EntryMap::node_type NclCachingScheme::drop_entry(
    std::size_t node, EntryMap::const_iterator it) {
  DTN_CHECK(it != store_.entries[node].cend(), "dropped entry must exist");
  EntryMap::node_type lifted = store_.entries[node].extract(it);
  store_.bytes[node].used -= lifted.mapped().size;
  DTN_CHECK_GE(store_.bytes[node].used, 0);
  central_count_add(node, lifted.mapped().central, -1);
  return lifted;
}

double NclCachingScheme::popularity_of(SimServices& services, NodeId node,
                                       DataId data) const {
  const auto& history = store_.history[static_cast<std::size_t>(node)];
  const auto it = history.find(data);
  if (it == history.end()) return 0.0;
  return it->second.popularity(services.now(), services.data(data).expires);
}

bool NclCachingScheme::holds_data(NodeId node, DataId data, Time now) const {
  return store_.entries[static_cast<std::size_t>(node)].contains(data) &&
         now >= 0.0;  // entry presence implies liveness
}

bool NclCachingScheme::node_caches(NodeId node, DataId data) const {
  return store_.entries[index(node)].contains(data);
}

bool NclCachingScheme::check_invariants(const DataRegistry& registry) const {
  for (std::size_t node = 0; node < store_.size(); ++node) {
    const auto& entries = store_.entries[node];
    const ByteAccount& bytes = store_.bytes[node];
    if (bytes.used > bytes.capacity) return false;
    Bytes entry_bytes = 0;
    for (const auto& [id, entry] : entries) {
      if (entry.size <= 0) return false;
      if (registry.get(id).size != entry.size) return false;
      entry_bytes += entry.size;
      // The earliest-expiry bound must never exceed the expiry of anything
      // the node holds, or prune scans would be skipped past real work.
      if (store_.next_expiry[node] > registry.get(id).expires) return false;
    }
    if (entry_bytes != bytes.used) return false;
    // The per-(node, central) counts drive NCL-membership tests; they must
    // agree exactly with the entry map.
    for (const auto& [central, count] : store_.central_counts[node]) {
      std::int32_t actual = 0;
      for (const auto& [id, entry] : entries) {
        if (entry.central == central) ++actual;
      }
      if (actual != count) return false;  // also rejects count < 0
    }
    for (const auto& [id, estimator] : store_.history[node]) {
      if (store_.next_expiry[node] > registry.get(id).expires) return false;
    }
    for (const PushToken& token : store_.push_tokens[node]) {
      if (store_.next_expiry[node] > registry.get(token.data).expires) {
        return false;
      }
    }
    for (const QueryCopy& copy : store_.query_copies[node]) {
      if (store_.next_expiry[node] > copy.query.expires) return false;
    }
    for (const ResponseBundle& response : store_.responses[node]) {
      if (store_.next_expiry[node] > response.query.expires) return false;
    }
    // Note: a push token's holder *usually* caches the item, but cache
    // replacement may migrate the entry to a peer while the token stays —
    // the token then re-establishes a copy at its next forwarding step, so
    // token/entry co-location is intentionally NOT an invariant.
  }
  return true;
}

std::size_t NclCachingScheme::push_tokens_in_flight() const {
  std::size_t count = 0;
  for (const auto& queue : store_.push_tokens) count += queue.size();
  return count;
}

void NclCachingScheme::on_data_generated(SimServices& services,
                                         const DataItem& item) {
  const std::size_t si = index(item.source);
  // The source holds its item natively for the item's lifetime; push tokens
  // carry copies towards every central node. If the source *is* a central
  // node, its copy settles immediately.
  for (NodeId c : config_.central_nodes) {
    if (c == item.source) {
      if (admits(si, item.id, item.size)) {
        put_entry(services, si, item.id,
                  make_entry(services, item.source, item.size, c, false));
      }
      continue;
    }
    store_.push_tokens[si].push_back(PushToken{item.id, c});
    note_expiry(si, item.expires);
  }
}

void NclCachingScheme::note_query_seen(SimServices& services, NodeId node,
                                       const Query& query) {
  const std::size_t ni = index(node);
  if (store_.seen_queries[ni].contains(query.id)) return;
  store_.seen_queries[ni].insert(query.id);
  store_.seen_order[ni].push_back(query.id);
  while (store_.seen_order[ni].size() > kMaxTrackedQueries) {
    const QueryId evicted = store_.seen_order[ni].front();
    store_.seen_order[ni].pop_front();
    store_.seen_queries[ni].erase(evicted);
    store_.responded[ni].erase(evicted);
  }
  store_.history[ni][query.data].record_request(query.issued);
  // History entries expire with their data item, so the node's expiry
  // bound must cover the item's lifetime, not the query's.
  note_expiry(ni, services.data(query.data).expires);
}

void NclCachingScheme::maybe_respond(SimServices& services, NodeId node,
                                     const Query& query) {
  const Time now = services.now();
  if (!query.alive(now)) return;
  const std::size_t ni = index(node);
  if (store_.responded[ni].contains(query.id)) return;

  const DataItem& item = services.data(query.data);
  if (!item.alive(now)) return;
  const bool cached = holds_data(node, query.data, now);
  const bool native = item.source == node;
  if (!cached && !native) return;  // no copy to return; no decision yet

  store_.responded[ni].insert(query.id);

  // Refresh recency / GDS value for the traditional replacement policies.
  if (auto it = store_.entries[ni].find(query.data);
      it != store_.entries[ni].end()) {
    it->second.last_access = now;
    it->second.h_value =
        store_.gds_l[ni] + popularity_of(services, node, query.data) /
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

  store_.responses[ni].push_back(ResponseBundle{query, item.size});
  note_expiry(ni, query.expires);
  ++responses_sent_;
}

void NclCachingScheme::on_query(SimServices& services, const Query& query) {
  NodeId requester = query.requester;
  note_query_seen(services, requester, query);

  // Local hit: the requester happens to cache the data already.
  if (holds_data(requester, query.data, services.now())) {
    services.deliver(query);
    return;
  }

  // Multicast one routed copy per central node (Sec. V-B).
  const std::size_t ri = index(requester);
  for (NodeId c : config_.central_nodes) {
    QueryCopy copy{query, c, /*broadcast=*/false};
    if (c == requester) {
      copy.broadcast = true;  // the requester is a central node itself
      maybe_respond(services, requester, query);
    }
    store_.query_copies[ri].push_back(copy);
  }
  note_expiry(ri, query.expires);
}

void NclCachingScheme::transfer_direction(SimServices& services, NodeId from,
                                          NodeId to, LinkBudget& budget) {
  const Time now = services.now();
  const std::size_t fi = index(from);
  const std::size_t ti = index(to);
  // Each queue below is walked once and compacted in place: survivors are
  // copied down to the `kept` prefix in visiting order, which is the
  // reference's kept vector, and bundles handed to `to` are appended to its
  // queue. on_contact guarantees from != to, so the two never alias.

  // ---- 1. Responses: cached data returning to requesters. ----
  {
    auto& queue = store_.responses[fi];
    std::size_t kept = 0;
    for (ResponseBundle& response : queue) {
      const Query& q = response.query;
      if (!q.alive(now) || !services.data(q.data).alive(now)) continue;  // drop
      if (to == q.requester) {
        if (budget.consume(response.size)) {
          services.count_bytes(response.size);
          services.deliver(q);
          ++counters_.responses_delivered;
          continue;  // delivered: bundle consumed
        }
      } else {
        const double w_to = services.path_weight(to, q.requester);
        const double w_from = services.path_weight(from, q.requester);
        if (w_to > w_from && budget.consume(response.size)) {
          services.count_bytes(response.size);
          note_expiry(ti, q.expires);
          store_.responses[ti].push_back(response);
          continue;  // moved
        }
      }
      queue[kept++] = response;
    }
    queue.resize(kept);
  }

  // ---- 2. Query copies: routed towards centrals / broadcast in NCLs. ----
  {
    auto& queue = store_.query_copies[fi];
    std::size_t kept = 0;
    for (QueryCopy& copy : queue) {
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
            note_expiry(ti, q.expires);
            store_.query_copies[ti].push_back(copy);
            continue;
          }
        } else if (services.path_weight(to, copy.central) >
                       services.path_weight(from, copy.central) &&
                   budget.consume(kQueryBytes)) {
          services.count_bytes(kQueryBytes);
          note_query_seen(services, to, q);
          maybe_respond(services, to, q);
          note_expiry(ti, q.expires);
          store_.query_copies[ti].push_back(copy);
          continue;
        }
        queue[kept++] = copy;
        continue;
      }

      // Broadcast phase: replicate to caching members of this NCL. The
      // per-(node, central) entry counts answer membership in O(K)
      // instead of the legacy any_of scan over the whole entry map.
      const bool member =
          to == copy.central || central_count(ti, copy.central) > 0;
      if (member && !store_.seen_queries[ti].contains(q.id) &&
          budget.consume(kQueryBytes)) {
        services.count_bytes(kQueryBytes);
        note_query_seen(services, to, q);
        maybe_respond(services, to, q);
        note_expiry(ti, q.expires);
        store_.query_copies[ti].push_back(copy);  // replicate
      }
      queue[kept++] = copy;  // keep local copy
    }
    queue.resize(kept);
  }

  // ---- 3. Push tokens: data copies towards central nodes. ----
  {
    auto& queue = store_.push_tokens[fi];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const PushToken token = queue[i];
      const DataItem& item = services.data(token.data);
      DTN_CHECK(item.alive(now), "on_contact's prune left an expired token");
      const double w_to = services.path_weight(to, token.central);
      const double w_from = services.path_weight(from, token.central);
      if (!(w_to > w_from)) {
        queue[kept++] = token;
        continue;
      }

      auto release_source_copy = [&]() {
        // The relay deletes its own copy after forwarding (Sec. V-A) —
        // unless another token (already kept or still pending in this
        // loop) needs it, or it has settled here. The kept prefix and the
        // unvisited suffix are the reference's kept vector and pending
        // suffix.
        const auto it = store_.entries[fi].find(token.data);
        if (it == store_.entries[fi].end() || !it->second.in_transit) return;
        const auto needs = [&](const PushToken& t) {
          return t.data == token.data;
        };
        const auto kept_end = queue.begin() + static_cast<std::ptrdiff_t>(kept);
        const auto pending = queue.begin() + static_cast<std::ptrdiff_t>(i + 1);
        if (std::any_of(queue.begin(), kept_end, needs) ||
            std::any_of(pending, queue.end(), needs)) {
          return;
        }
        drop_entry(fi, it);
      };

      if (store_.entries[ti].contains(token.data)) {
        // The destination already caches this item. The central case means
        // this NCL is served: the copy settles and the token completes.
        // Otherwise the token WAITS at its current holder rather than
        // piling up: each of the K copies must occupy a distinct node, or
        // the correlated gradients towards the (all well-connected)
        // central nodes would herd every token onto the same hub and
        // collapse the K per-NCL copies into one cache entry.
        if (to == token.central) {
          store_.entries[ti].find(token.data)->second.in_transit = false;
          ++counters_.tokens_settled;
          ++counters_.token_hops;
          release_source_copy();
        } else {
          queue[kept++] = token;
        }
        continue;
      }

      // Traditional replacement strategies (Fig. 12) evict at insertion
      // time to admit the pushed copy; the utility strategy never evicts
      // here — a full buffer stops the push instead.
      if (!store_.bytes[ti].fits(item.size) &&
          config_.strategy != CacheStrategy::kUtilityExchange) {
        evict_for(services, to, item);
      }

      if (store_.bytes[ti].fits(item.size)) {
        if (!budget.consume(item.size)) {
          queue[kept++] = token;  // try again at a later contact
          continue;
        }
        services.count_bytes(item.size);
        put_entry(services, ti, token.data,
                  make_entry(services, to, item.size, token.central,
                             to != token.central));
        ++counters_.token_hops;
        if (to != token.central) {
          note_expiry(ti, item.expires);
          store_.push_tokens[ti].push_back(token);
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
      // When the source holds only its native copy, park a cache copy here
      // if possible so the item is queryable at this NCL.
      if (admits(fi, token.data, item.size)) {
        put_entry(services, fi, token.data,
                  make_entry(services, from, item.size, token.central, true));
      }
      queue[kept++] = token;
    }
    queue.resize(kept);
  }
}

void NclCachingScheme::run_replacement(SimServices& services, NodeId a,
                                       NodeId b, LinkBudget& budget) {
  const std::size_t ai = index(a);
  const std::size_t bi = index(b);
  auto& ea = store_.entries[ai];
  auto& eb = store_.entries[bi];
  if (ea.empty() && eb.empty()) return;

  // One exchange per NCL: each NCL holds its own copy of a data item
  // ("one copy of data is cached at each NCL", Sec. V), so copies assigned
  // to different central nodes never merge — pooling them together would
  // collapse the K per-NCL copies into one and destroy data accessibility.
  // The per-(node, central) counts already know the distinct centrals, so
  // no entry-map walk is needed; sorting makes the set order-independent,
  // exactly like the legacy collect-then-sort.
  ws_.centrals.clear();
  auto add_centrals_from = [&](std::size_t ni) {
    for (const auto& [central, count] : store_.central_counts[ni]) {
      if (count <= 0) continue;
      if (std::find(ws_.centrals.begin(), ws_.centrals.end(), central) ==
          ws_.centrals.end()) {
        ws_.centrals.push_back(central);
      }
    }
  };
  add_centrals_from(ai);
  add_centrals_from(bi);
  std::sort(ws_.centrals.begin(), ws_.centrals.end());  // deterministic order

  bool any_pool = false;
  for (NodeId central : ws_.centrals) {
    const double weight_a = services.path_weight(a, central);
    const double weight_b = services.path_weight(b, central);

    // Same NCL, same item cached at both nodes: genuinely redundant —
    // collapse to the copy at the node nearer this central.
    {
      ws_.shared.clear();
      for (auto it = ea.begin(); it != ea.end(); ++it) {
        if (it->second.central != central) continue;
        const auto jt = eb.find(it->first);
        if (jt != eb.end() && jt->second.central == central) {
          ws_.shared.push_back(it->first);
        }
      }
      const std::size_t farther = weight_a >= weight_b ? bi : ai;
      for (DataId id : ws_.shared) {
        drop_entry(farther, store_.entries[farther].find(id));
      }
    }

    // Pool the two nodes' copies belonging to this NCL, lifting their map
    // nodes out (ws_.lifted, parallel to ws_.pool) as the reference later
    // erases them; merge request histories (tiny control data) so both
    // sides agree on popularity. Plan ids map to pool indices by a scan.
    ws_.pool.clear();
    auto collect = [&](std::size_t ni, bool at_a) {
      auto& na_history = store_.history[ai];
      auto& nb_history = store_.history[bi];
      auto& ns_entries = store_.entries[ni];
      for (auto it = ns_entries.begin(); it != ns_entries.end();) {
        const auto entry = it++;
        const DataId id = entry->first;
        if (entry->second.central != central) continue;
        auto ha = na_history.find(id);
        auto hb = nb_history.find(id);
        if (ha != na_history.end() && hb != nb_history.end()) {
          ha->second.merge(hb->second);
          hb->second = ha->second;
        } else if (ha != na_history.end()) {
          nb_history[id] = ha->second;
          note_expiry(bi, services.data(id).expires);
        } else if (hb != nb_history.end()) {
          na_history[id] = hb->second;
          note_expiry(ai, services.data(id).expires);
        }
        ReplacementItem ri;
        ri.id = id;
        ri.size = entry->second.size;
        ri.at_a = at_a;
        ri.popularity = popularity_of(services, at_a ? a : b, id);
        ws_.pool.push_back(ri);
        ws_.lifted.push_back(drop_entry(ni, entry));
      }
    };
    collect(ai, true);
    collect(bi, false);
    if (ws_.pool.empty()) continue;
    any_pool = true;

    // With the pool lifted out, free space is the pool's capacity.
    plan_replacement(ws_.pool, store_.bytes[ai].free(),
                     store_.bytes[bi].free(), weight_a, weight_b,
                     config_.replacement, services.rng(), ws_.replan,
                     ws_.plan);

    // Apply: re-link the keeps' nodes. insert(node_type&&) links where
    // emplace would (same buckets, rehash points and iteration order)
    // without a malloc. In-place keeps are free; moves cost link budget.
    std::size_t moved = 0;
    std::size_t dropped = ws_.plan.dropped.size() + ws_.shared.size();
    auto pool_index_of = [&](DataId id) {
      for (std::size_t i = 0; i < ws_.pool.size(); ++i) {
        if (ws_.pool[i].id == id) return i;
      }
      DTN_CHECK(false, "replacement plan references an item outside the pool");
      return std::size_t{0};
    };
    auto reinsert = [&](const std::vector<DataId>& keeps, bool to_a) {
      const std::size_t target = to_a ? ai : bi;
      const NodeId target_id = to_a ? a : b;
      for (DataId id : keeps) {
        const std::size_t pi = pool_index_of(id);
        const ReplacementItem& item = ws_.pool[pi];
        const bool moving = item.at_a != to_a;
        const bool carried = !moving || budget.consume(item.size);
        if (carried && moving) services.count_bytes(item.size);
        if (carried && admits(target, id, item.size)) {
          if (moving) {
            ws_.lifted[pi].mapped() =
                make_entry(services, target_id, item.size, central, false);
            ++moved;
          }
          put_entry(services, target, std::move(ws_.lifted[pi]));
          continue;
        }
        // No budget for the move, or the target holds the id for another
        // NCL (or, against the plan, lacks the bytes): restore the entry
        // verbatim at its origin, so a push copy in transit stays so.
        const std::size_t origin = item.at_a ? ai : bi;
        if (admits(origin, id, item.size)) {
          put_entry(services, origin, std::move(ws_.lifted[pi]));
        } else {
          ++dropped;
        }
      }
    };
    reinsert(ws_.plan.keep_at_a, true);
    reinsert(ws_.plan.keep_at_b, false);
    ws_.lifted.clear();  // frees the dropped items' nodes

    if (moved + dropped > 0) services.count_replacement(moved + dropped);
    DTN_COUNT_N(kBufferEvictions, dropped);
  }
  if (any_pool) ++replacement_exchanges_;
}

void NclCachingScheme::on_contact(SimServices& services, NodeId a, NodeId b,
                                  LinkBudget& budget) {
  // transfer_direction compacts the source queue while appending to the
  // peer's: a self-contact would append to the queue it is compacting.
  DTN_CHECK(a != b, "a contact needs two distinct nodes");
  ws_.begin_contact();
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
  DTN_CHECK_LE(store_.bytes[index(a)].used, store_.bytes[index(a)].capacity);
  DTN_CHECK_LE(store_.bytes[index(b)].used, store_.bytes[index(b)].capacity);
  ws_.end_contact();
}

NclCachingScheme::CacheEntry NclCachingScheme::make_entry(
    SimServices& services, NodeId holder, Bytes size, NodeId central,
    bool in_transit) const {
  CacheEntry entry;
  entry.size = size;
  entry.central = central;
  entry.in_transit = in_transit;
  entry.inserted_at = services.now();
  entry.last_access = services.now();
  entry.h_value = store_.gds_l[static_cast<std::size_t>(holder)] +
                  0.0;  // popularity 0 at insertion (footnote 3)
  return entry;
}

bool NclCachingScheme::evict_for(SimServices& services, NodeId node,
                                 const DataItem& item) {
  const std::size_t ni = index(node);
  if (item.size > store_.bytes[ni].capacity) return false;

  // Rank current entries by the active policy, cheapest victim first.
  ws_.ranked.clear();
  for (const auto& [id, entry] : store_.entries[ni]) {
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
        return store_.bytes[ni].fits(item.size);  // no insertion-time eviction
    }
    ws_.ranked.emplace_back(key, id);
  }
  std::sort(ws_.ranked.begin(), ws_.ranked.end());

  std::size_t evicted = 0;
  for (const auto& [key, victim] : ws_.ranked) {
    if (store_.bytes[ni].fits(item.size)) break;
    if (config_.strategy == CacheStrategy::kGds) store_.gds_l[ni] = key;  // aging
    drop_entry(ni, store_.entries[ni].find(victim));
    ++evicted;
  }
  if (evicted > 0) {
    services.count_replacement(evicted);
    DTN_COUNT_N(kBufferEvictions, evicted);
  }
  return store_.bytes[ni].fits(item.size);
}

void NclCachingScheme::prune_node_with_registry(SimServices& services,
                                                NodeId node) {
  const Time now = services.now();
  const std::size_t ni = index(node);
  // Everything this node holds provably expires after `now`: the scan
  // below would erase nothing and mutate nothing — skip it. The bound is
  // lowered at every insert site and restored exactly by each full scan.
  if (now < store_.next_expiry[ni]) return;

  Time earliest = kNever;
  // True when an object expiring at `expires` is dead; a live one lowers
  // `earliest` instead.
  const auto expired = [&](Time expires) {
    if (!(now < expires)) return true;
    if (expires < earliest) earliest = expires;
    return false;
  };
  auto& entries = store_.entries[ni];
  for (auto it = entries.begin(); it != entries.end();) {
    if (expired(services.data(it->first).expires)) {
      drop_entry(ni, it++);
    } else {
      ++it;
    }
  }
  counters_.tokens_expired +=
      std::erase_if(store_.push_tokens[ni], [&](const PushToken& token) {
        return expired(services.data(token.data).expires);
      });
  std::erase_if(store_.query_copies[ni], [&](const QueryCopy& copy) {
    return expired(copy.query.expires);
  });
  std::erase_if(store_.responses[ni], [&](const ResponseBundle& response) {
    return expired(response.query.expires);
  });
  std::erase_if(store_.history[ni], [&](const auto& kv) {
    return expired(services.data(kv.first).expires);
  });
  store_.next_expiry[ni] = earliest;
}

void NclCachingScheme::on_maintenance(SimServices& services) {
  for (NodeId node = 0; node < static_cast<NodeId>(store_.size()); ++node) {
    prune_node_with_registry(services, node);
    const auto ni = static_cast<std::size_t>(node);
    release_if_empty(store_.push_tokens[ni]);
    release_if_empty(store_.query_copies[ni]);
    release_if_empty(store_.responses[ni]);
  }
  if (config_.dynamic_ncl) reselect_centrals(services);
}

void NclCachingScheme::reselect_centrals(SimServices& services) {
  const AllPairsPaths& paths = services.paths();
  if (paths.empty()) return;
  const NodeId n = std::min<NodeId>(paths.node_count(),
                                    static_cast<NodeId>(store_.size()));
  if (n < 2) return;

  // The NCL metric of Eq. 3, computed from the already-available path
  // tables. Maintenance-tick cadence, not the contact hot path — the local
  // containers here are fine.
  std::vector<double> metric(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    metric[static_cast<std::size_t>(i)] = ncl_metric(paths.table(i));
  }
  std::vector<NodeId> fresh =
      top_by_metric(metric, config_.central_nodes.size());
  if (fresh.empty() || fresh == config_.central_nodes) return;
  config_.central_nodes = std::move(fresh);
  is_central_.assign(store_.size(), 0);
  for (NodeId c : config_.central_nodes) {
    is_central_[static_cast<std::size_t>(c)] = 1;
  }

  // Re-home cached copies whose NCL no longer exists: assign each to the
  // current central its holder reaches best, so query broadcasts and
  // replacement keep finding them instead of serving a ghost NCL.
  for (NodeId holder = 0; holder < static_cast<NodeId>(store_.size());
       ++holder) {
    const std::size_t hi = static_cast<std::size_t>(holder);
    if (store_.entries[hi].empty() && store_.push_tokens[hi].empty()) continue;
    NodeId best = config_.central_nodes.front();
    double best_weight = -1.0;
    for (NodeId c : config_.central_nodes) {
      const double w = services.path_weight(holder, c);
      if (w > best_weight) {
        best_weight = w;
        best = c;
      }
    }
    for (auto& [id, entry] : store_.entries[hi]) {
      if (!is_central(entry.central)) {
        central_count_add(hi, entry.central, -1);
        central_count_add(hi, best, +1);
        entry.central = best;
      }
    }
    // Push tokens towards a dead central redirect to the holder's best
    // current central (dedup: only one token per (data, central) pair).
    for (PushToken& token : store_.push_tokens[hi]) {
      if (!is_central(token.central)) token.central = best;
    }
  }
}

std::size_t NclCachingScheme::cached_copies(Time now) const {
  std::size_t count = 0;
  for (const auto& entries : store_.entries) count += entries.size();
  (void)now;  // maintenance pruning keeps entries fresh
  return count;
}

Bytes NclCachingScheme::cached_bytes(Time now) const {
  Bytes total = 0;
  for (const ByteAccount& bytes : store_.bytes) total += bytes.used;
  (void)now;
  return total;
}

}  // namespace dtn
