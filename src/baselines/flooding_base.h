// Shared machinery for the baseline data-access schemes (Sec. VI):
// NoCache, RandomCache, CacheData and BundleCache.
//
// None of these schemes know about NCLs. A query is routed as a single
// copy along the opportunistic path-weight gradient towards the *data
// source* (the natural DTN transplant of the MANET baselines, where the
// query follows the route to the source); any node holding the requested
// data en route — the source, or a caching node — replies with a copy
// routed back to the requester along the same gradient. Both directions
// use exactly the forwarding substrate the NCL scheme uses, so the
// comparison isolates the *caching* policy, which is the paper's intent.
//
// Derived schemes customize:
//  * where data gets cached (requester / response-path relays / nowhere);
//  * the admission + eviction policy of the node-local cache.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/popularity.h"
#include "net/buffer.h"
#include "sim/scheme.h"

namespace dtn {

struct FloodingConfig {
  /// Per-node cache capacity in bytes (size N).
  std::vector<Bytes> buffer_capacity;
};

class FloodingSchemeBase : public Scheme {
 public:
  explicit FloodingSchemeBase(FloodingConfig config);

  void on_data_generated(SimServices& services, const DataItem& item) override;
  void on_query(SimServices& services, const Query& query) override;
  void on_contact(SimServices& services, NodeId a, NodeId b,
                  LinkBudget& budget) override;
  void on_maintenance(SimServices& services) override;

  std::size_t cached_copies(Time now) const override;
  Bytes cached_bytes(Time now) const override;

  /// Introspection for tests.
  bool node_caches(NodeId node, DataId data) const;
  std::uint64_t evictions() const { return evictions_; }

  /// Structural invariants (buffer/entry accounting); see
  /// NclCachingScheme::check_invariants for the contract.
  bool check_invariants(const DataRegistry& registry) const;

 protected:
  struct CachedEntry {
    Bytes size = 0;
    Time inserted_at = 0.0;
    Time last_access = 0.0;
  };

  /// A single-copy query bundle riding the gradient towards the source.
  struct FloodCopy {
    Query query;
  };

  struct ResponseBundle {
    Query query;
    Bytes size = 0;
  };

  struct NodeState {
    CacheBuffer buffer{0};
    std::unordered_map<DataId, CachedEntry> entries;
    std::unordered_map<DataId, PopularityEstimator> history;
    std::vector<FloodCopy> flood;
    std::vector<ResponseBundle> responses;
    std::unordered_set<QueryId> seen_queries;
    std::unordered_set<QueryId> responded;
    std::deque<QueryId> seen_order;
  };

  NodeState& state(NodeId node) { return nodes_.at(static_cast<std::size_t>(node)); }
  const NodeState& state(NodeId node) const {
    return nodes_.at(static_cast<std::size_t>(node));
  }
  NodeId node_count() const { return static_cast<NodeId>(nodes_.size()); }

  /// True when the node can serve the data: it is the source (native copy)
  /// or it caches a copy.
  bool holds_data(SimServices& services, NodeId node, DataId data) const;

  /// Popularity estimate of `data` as seen by `node`'s query history.
  double popularity_of(SimServices& services, NodeId node, DataId data) const;

  /// Inserts `item` into `node`'s cache, evicting per the derived policy.
  /// Returns true when cached. Counts evictions into the metrics.
  bool try_cache(SimServices& services, NodeId node, const DataItem& item);

  /// Records a query sighting (popularity history + dedup bookkeeping).
  void note_query_seen(SimServices& services, NodeId node, const Query& query);

  // ---- derived-scheme policy hooks ----

  /// The requester received the data (RandomCache caches here).
  virtual void on_delivered(SimServices& services, const Query& query) {
    (void)services;
    (void)query;
  }

  /// A relay forwarded a response bundle (CacheData / BundleCache cache
  /// pass-by data here).
  virtual void on_response_relayed(SimServices& services, NodeId relay,
                                   const Query& query) {
    (void)services;
    (void)relay;
    (void)query;
  }

  /// Whether admission of `item` at `node` is allowed, and which victims to
  /// evict to make room. Returns the eviction order (ascending priority to
  /// keep); return an empty vector to evict nothing. Base implementation:
  /// LRU order over all entries.
  virtual std::vector<DataId> eviction_order(SimServices& services, NodeId node,
                                             const DataItem& incoming);

  /// Admission check before any eviction happens (BundleCache gates on the
  /// node's contact centrality). Default: always admit.
  virtual bool admission_allowed(SimServices& services, NodeId node,
                                 const DataItem& incoming) {
    (void)services;
    (void)node;
    (void)incoming;
    return true;
  }

 private:
  void transfer_direction(SimServices& services, NodeId from, NodeId to,
                          LinkBudget& budget);
  void maybe_respond(SimServices& services, NodeId node, const Query& query);
  void prune_node(SimServices& services, NodeId node);

  FloodingConfig config_;
  std::vector<NodeState> nodes_;
  std::uint64_t evictions_ = 0;
};

}  // namespace dtn
