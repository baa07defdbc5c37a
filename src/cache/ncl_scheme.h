// The paper's primary contribution: intentional cooperative caching at
// Network Central Locations (Sec. V).
//
// Protocol summary:
//  * PUSH — a data source keeps its own item natively and launches one push
//    token per central node; tokens ride the opportunistic-path-weight
//    gradient towards their central. The token's current holder caches the
//    item ("relays are temporal caching locations"); forwarding stops when
//    the next relay's buffer cannot take the item, which leaves the copy
//    cached at the current relay — so each NCL's caching nodes form a
//    connected subgraph around the central node (Fig. 5).
//  * PULL — a requester multicasts its query towards every central node
//    (one routed copy per central). A central node answers from its own
//    cache, and in addition broadcasts the query to the caching nodes of
//    its NCL until the query expires (Fig. 6); every caching node that sees
//    the query updates the data item's popularity history.
//  * PROBABILISTIC RESPONSE — a caching node holding the data replies with
//    a probability given by the configured variant (Sec. V-C): the
//    path-weight p_CR(T_q - t_0) or the sigmoid of Eq. 4.
//  * REPLACEMENT — whenever two nodes with cached data meet, the pooled
//    items are re-assigned by the probabilistic knapsack of Sec. V-D
//    (cache/replacement.h), migrating popular data towards the centrals.
//
// Memory model (this is the SimEngine::kFast implementation; the legacy
// per-object layout survives as cache/ncl_scheme_reference.h):
//  * Node state is structure-of-arrays — one vector per field across all
//    nodes (NodeStore) instead of a vector of fat NodeState objects. A
//    node's cache is its `entries` map plus a {capacity, used} byte account.
//  * In-flight bundles (push tokens, query copies, responses) live in one
//    std::vector per node and kind. A transfer direction walks the source
//    queue once, compacts its survivors in place (the reference's "kept"
//    order) and appends moved or replicated bundles to the peer's queue;
//    maintenance ticks free the buffers of empty queues. The replacement
//    exchange re-links the map nodes it lifts.
//  * Per-contact scratch (replacement pools, eviction ranking, plan
//    buffers) lives in a reusable ContactWorkspace.
//  * The id-keyed metadata maps (`entries`, `history`) deliberately REMAIN
//    std::unordered_map: the replacement exchange pools items in map
//    iteration order and draws one Bernoulli per pooled item in
//    utility-sorted order, so iteration order is observable through the RNG
//    stream. Keeping the container (and the exact operation sequence;
//    extract + node insert unlink and link as erase + emplace do) keeps
//    the fast scheme bit-identical to the reference oracle.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/popularity.h"
#include "cache/replacement.h"
#include "cache/response.h"
#include "sim/scheme.h"

namespace dtn {

/// Which cache-replacement strategy the scheme runs (Fig. 12 compares the
/// paper's utility-based exchange against FIFO, LRU and Greedy-Dual-Size).
/// The traditional policies replace at *insertion* time (evict to admit a
/// pushed copy); the utility strategy replaces at *contact* time via the
/// pooled knapsack exchange.
enum class CacheStrategy { kUtilityExchange, kFifo, kLru, kGds };

struct NclSchemeConfig {
  /// Central nodes representing the NCLs (from select_ncls), best first.
  std::vector<NodeId> central_nodes;

  /// Per-node cache capacity in bytes (size N).
  std::vector<Bytes> buffer_capacity;

  ResponseMode response_mode = ResponseMode::kPathWeight;
  SigmoidResponse sigmoid;

  CacheStrategy strategy = CacheStrategy::kUtilityExchange;
  ReplacementConfig replacement;
  /// Disables contact-time cache replacement entirely (ablation; only
  /// meaningful with kUtilityExchange).
  bool enable_replacement = true;

  /// Extension beyond the paper: re-select the central nodes at every
  /// maintenance tick from the current path tables (the paper fixes the
  /// NCLs once, arguing contact patterns are long-term stable — which
  /// breaks down when central nodes fail or deplete). Existing cache
  /// entries keep their NCL assignment; new pushes target the new
  /// centrals, so the caching population migrates gradually.
  bool dynamic_ncl = false;
};

class NclCachingScheme : public Scheme {
 public:
  explicit NclCachingScheme(NclSchemeConfig config);

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
  ///  * every cache entry's size is positive and matches the registry's;
  ///  * per-node entry bytes exactly equal the byte account's used bytes;
  ///  * no node's used bytes exceed its capacity;
  ///  * the per-(node, central) entry counts used for O(1) NCL-membership
  ///    tests agree with the entry maps;
  ///  * every per-node earliest-expiry bound is a true lower bound on the
  ///    expiry of everything the node holds (entries, histories, bundles).
  /// Returns false on the first violation.
  bool check_invariants(const DataRegistry& registry) const;

  /// Protocol event counters (diagnostics and tests).
  struct Counters {
    std::uint64_t tokens_settled = 0;       ///< reached their central node
    std::uint64_t tokens_stopped_full = 0;  ///< parked: next relay was full
    std::uint64_t tokens_expired = 0;       ///< pruned: their data expired
    std::uint64_t token_hops = 0;           ///< gradient forwarding steps
    std::uint64_t queries_reached_central = 0;
    std::uint64_t responses_delivered = 0;

    bool operator==(const Counters&) const = default;
  };
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
  using EntryMap = std::unordered_map<DataId, CacheEntry>;

  /// Byte account of one node's cache; the entry map records membership.
  struct ByteAccount {
    Bytes capacity = 0;
    Bytes used = 0;
    Bytes free() const { return capacity - used; }
    bool fits(Bytes size) const { return size <= free(); }
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

 public:
  /// Reusable per-contact scratch. One workspace serves every contact of a
  /// run in strict sequence: begin_contact() / end_contact() bracket each
  /// contact, and beginning a contact while another is active is a
  /// DTN_CHECK abort (tests/check_test.cpp) — overlapping use would let
  /// two contacts corrupt each other's replacement pools.
  class ContactWorkspace {
   public:
    void begin_contact();
    void end_contact();
    bool active() const { return active_; }

   private:
    friend class NclCachingScheme;

    bool active_ = false;

    // Replacement-exchange scratch, cleared per central with capacity kept.
    std::vector<NodeId> centrals;
    std::vector<DataId> shared;
    std::vector<ReplacementItem> pool;
    std::vector<EntryMap::node_type> lifted;  ///< parallel to `pool`
    ReplacementPlan plan;
    ReplacementWorkspace replan;
    // Insertion-time eviction ranking (FIFO/LRU/GDS strategies).
    std::vector<std::pair<double, DataId>> ranked;
  };

 private:
  /// Structure-of-arrays node state: index = NodeId. See the header comment
  /// for which fields are flat vectors and which stay node-based maps (and
  /// why).
  struct NodeStore {
    std::vector<ByteAccount> bytes;
    std::vector<EntryMap> entries;
    std::vector<double> gds_l;  ///< Greedy-Dual-Size aging level
    /// Request history per data id, fed by queries this node has seen.
    std::vector<std::unordered_map<DataId, PopularityEstimator>> history;
    /// In-flight bundles, oldest first.
    std::vector<std::vector<PushToken>> push_tokens;
    std::vector<std::vector<QueryCopy>> query_copies;
    std::vector<std::vector<ResponseBundle>> responses;
    /// Queries this node has already accepted a broadcast/routed copy of.
    std::vector<std::unordered_set<QueryId>> seen_queries;
    /// Queries this node has already decided a response for.
    std::vector<std::unordered_set<QueryId>> responded;
    /// FIFO of seen query ids for bounded eviction.
    std::vector<std::deque<QueryId>> seen_order;
    /// Conservative lower bound on the earliest expiry of anything the
    /// node holds; prune scans are skipped while now < next_expiry (the
    /// scan would provably erase nothing). Stale-low after erasures, reset
    /// exactly by every full scan.
    std::vector<Time> next_expiry;
    /// Cached entries per (node, central): O(1) NCL-membership tests in
    /// the query-broadcast phase and O(K) central collection in the
    /// replacement exchange, replacing per-contact entry-map walks.
    std::vector<std::vector<std::pair<NodeId, std::int32_t>>> central_counts;

    std::size_t size() const { return bytes.size(); }
    void resize(std::size_t n);
  };

  std::size_t index(NodeId node) const;

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
  /// No-ops in O(1) while the node's next_expiry bound proves every held
  /// object is still alive.
  void prune_node_with_registry(SimServices& services, NodeId node);
  /// Dynamic-NCL extension: re-derive the top-K central nodes from the
  /// current path tables.
  void reselect_centrals(SimServices& services);

  /// Lowers the node's earliest-expiry bound (called at every site that
  /// hands the node an expirable object).
  void note_expiry(std::size_t node, Time expires);
  /// Adjusts the (node, central) entry count; delta is +1 / -1 per entry.
  void central_count_add(std::size_t node, NodeId central, int delta);
  std::int32_t central_count(std::size_t node, NodeId central) const;
  /// True when `node` holds no entry for `id` and has `size` bytes free.
  bool admits(std::size_t node, DataId id, Bytes size) const {
    return !store_.entries[node].contains(id) && store_.bytes[node].fits(size);
  }
  /// Inserts a fresh cache entry, or re-links a lifted node (map + byte
  /// account + central count + expiry bound).
  void put_entry(SimServices& services, std::size_t node, DataId id,
                 const CacheEntry& entry);
  void put_entry(SimServices& services, std::size_t node,
                 EntryMap::node_type lifted);
  /// Unlinks an entry (map + byte account + central count); returns its node.
  EntryMap::node_type drop_entry(std::size_t node, EntryMap::const_iterator it);
  /// put_entry's byte account, central count and expiry bound.
  void charge_entry(SimServices& services, std::size_t node,
                    EntryMap::const_iterator it);

  NclSchemeConfig config_;
  NodeStore store_;
  ContactWorkspace ws_;
  std::vector<std::uint8_t> is_central_;  ///< O(1) bitmap over node ids
  std::uint64_t responses_sent_ = 0;
  std::uint64_t replacement_exchanges_ = 0;
  Counters counters_;
};

}  // namespace dtn
