// Reference implementation of the NCL caching scheme (Sec. V), preserved as
// the golden oracle for the SoA rewrite in cache/ncl_scheme.h.
//
// This is the pre-rewrite NclCachingScheme, line for line: per-node
// NodeState objects holding std::vector bundle queues that are rebuilt
// ("kept") per contact, allocating scratch containers per replacement
// exchange. The fast scheme claims *bit-identical* behavior — the same
// protocol decisions, the same RNG consumption sequence, the same metrics —
// with the per-event allocations removed; tests/engine_golden_test.cpp and
// the property harness pin that claim by running both classes side by side
// (selected via SimEngine::kReference on SimConfig). Keep this file frozen:
// it only changes when the protocol itself changes, never for performance.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/ncl_scheme.h"
#include "cache/popularity.h"
#include "cache/replacement.h"
#include "cache/response.h"
#include "net/buffer.h"
#include "sim/scheme.h"

namespace dtn {

class NclCachingSchemeReference : public Scheme {
 public:
  explicit NclCachingSchemeReference(NclSchemeConfig config);

  std::string name() const override { return "NCL-Cache"; }
  void on_start(SimServices& services) override;
  void on_maintenance(SimServices& services) override;
  void on_data_generated(SimServices& services, const DataItem& item) override;
  void on_query(SimServices& services, const Query& query) override;
  void on_contact(SimServices& services, NodeId a, NodeId b,
                  LinkBudget& budget) override;

  std::size_t cached_copies(Time now) const override;
  Bytes cached_bytes(Time now) const override;

  /// Introspection for tests / examples.
  const std::vector<NodeId>& central_nodes() const { return config_.central_nodes; }
  bool node_caches(NodeId node, DataId data) const;
  std::size_t push_tokens_in_flight() const;
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t replacement_exchanges() const { return replacement_exchanges_; }

  /// Structural invariants, checked by tests after simulations:
  ///  * every cache entry is backed by buffer accounting with the same size
  ///    and matches the registry's size for that item;
  ///  * per-node entry bytes exactly equal the buffer's used bytes;
  ///  * no buffer exceeds its capacity.
  /// Returns false on the first violation.
  bool check_invariants(const DataRegistry& registry) const;

  using Counters = NclCachingScheme::Counters;
  const Counters& counters() const { return counters_; }

 private:
  struct CacheEntry {
    Bytes size = 0;
    NodeId central = kNoNode;  ///< the NCL this copy serves
    bool in_transit = false;   ///< still riding the gradient towards central
    Time inserted_at = 0.0;    ///< FIFO bookkeeping
    Time last_access = 0.0;    ///< LRU bookkeeping
    double h_value = 0.0;      ///< Greedy-Dual-Size H value
  };

  /// A copy of `data` travelling towards `central` during push.
  struct PushToken {
    DataId data = kNoData;
    NodeId central = kNoNode;
  };

  /// A routed copy of a query on its way to `central`, or — once it has
  /// arrived — a broadcast copy spreading through that NCL.
  struct QueryCopy {
    Query query;
    NodeId central = kNoNode;
    bool broadcast = false;
  };

  /// A cached data copy travelling back to the requester.
  struct ResponseBundle {
    Query query;
    Bytes size = 0;
  };

  struct NodeState {
    CacheBuffer buffer{0};
    std::unordered_map<DataId, CacheEntry> entries;
    double gds_l = 0.0;  ///< Greedy-Dual-Size aging level
    /// Request history per data id, fed by queries this node has seen.
    std::unordered_map<DataId, PopularityEstimator> history;
    std::vector<PushToken> push_tokens;
    std::vector<QueryCopy> query_copies;
    std::vector<ResponseBundle> responses;
    /// Queries this node has already accepted a broadcast/routed copy of.
    std::unordered_set<QueryId> seen_queries;
    /// Queries this node has already decided a response for.
    std::unordered_set<QueryId> responded;
    /// FIFO of seen query ids for bounded eviction.
    std::deque<QueryId> seen_order;
  };

  NodeState& state(NodeId node) { return nodes_.at(static_cast<std::size_t>(node)); }
  const NodeState& state(NodeId node) const {
    return nodes_.at(static_cast<std::size_t>(node));
  }

  bool is_central(NodeId node) const;
  double popularity_of(SimServices& services, NodeId node, DataId data) const;

  /// True if node holds a queryable copy (cache entry, or is the source).
  bool holds_data(NodeId node, DataId data, Time now) const;

  void note_query_seen(SimServices& services, NodeId node, const Query& query);
  void maybe_respond(SimServices& services, NodeId node, const Query& query);

  /// One direction of a contact: moves bundles from `from` to `to`.
  void transfer_direction(SimServices& services, NodeId from, NodeId to,
                          LinkBudget& budget);
  void run_replacement(SimServices& services, NodeId a, NodeId b,
                       LinkBudget& budget);
  /// Builds a fresh cache entry stamped with the current time.
  CacheEntry make_entry(SimServices& services, NodeId holder, Bytes size,
                        NodeId central, bool in_transit) const;
  /// Insertion-time eviction for the FIFO / LRU / GDS strategies; frees
  /// space for `item` at `node` when the policy allows. Returns true when
  /// the item now fits.
  bool evict_for(SimServices& services, NodeId node, const DataItem& item);
  /// Drops expired cached data, tokens, queries and responses at `node`.
  void prune_node_with_registry(SimServices& services, NodeId node);
  /// Dynamic-NCL extension: re-derive the top-K central nodes from the
  /// current path tables.
  void reselect_centrals(SimServices& services);

  NclSchemeConfig config_;
  std::vector<NodeState> nodes_;
  std::unordered_set<QueryId> satisfied_;  ///< requester got the data
  std::uint64_t responses_sent_ = 0;
  std::uint64_t replacement_exchanges_ = 0;
  Counters counters_;
};

}  // namespace dtn
