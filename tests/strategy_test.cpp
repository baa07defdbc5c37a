// Focused tests for the traditional replacement strategies inside the NCL
// scheme (LRU / GDS specifics) and for protocol bookkeeping bounds.
#include <gtest/gtest.h>

#include "cache/ncl_scheme.h"
#include "graph/all_pairs.h"
#include "graph/contact_graph.h"

namespace dtn {
namespace {

/// Line 0 - 1 - 2 - 3, central at 3 (same scaffold as ncl_scheme_test).
class StrategyTest : public testing::Test {
 protected:
  StrategyTest() : rng_(29), services_(registry_, rng_, metrics_) {
    ContactGraph graph(4);
    graph.set_rate(0, 1, 1.0 / 600.0);
    graph.set_rate(1, 2, 1.0 / 600.0);
    graph.set_rate(2, 3, 1.0 / 600.0);
    services_.set_paths(std::make_shared<const AllPairsPaths>(graph, hours(1)));
    services_.set_now(0.0);
  }

  NclSchemeConfig config(CacheStrategy strategy, Bytes buffer) {
    NclSchemeConfig c;
    c.central_nodes = {3};
    c.buffer_capacity.assign(4, buffer);
    c.response_mode = ResponseMode::kAlways;
    c.strategy = strategy;
    return c;
  }

  DataItem add_data(NodeId source, Bytes size = 100, Time expires = 1e9) {
    DataItem item;
    item.source = source;
    item.created = services_.now();
    item.expires = expires;
    item.size = size;
    return registry_.get(registry_.add(item));
  }

  Query make_query(NodeId requester, DataId data) {
    Query q;
    q.id = next_query_++;
    q.requester = requester;
    q.data = data;
    q.issued = services_.now();
    q.expires = services_.now() + 1e6;
    metrics_.on_query_issued(q);
    return q;
  }

  void contact(NclCachingScheme& scheme, NodeId a, NodeId b) {
    LinkBudget budget(1 << 30);
    scheme.on_contact(services_, a, b, budget);
  }

  /// Pushes `item` (whose source is node 2) into the central's cache.
  void push_to_central(NclCachingScheme& scheme, const DataItem& item) {
    scheme.on_data_generated(services_, item);
    contact(scheme, 2, 3);
  }

  DataRegistry registry_;
  Rng rng_;
  MetricsCollector metrics_;
  SimServices services_;
  QueryId next_query_ = 0;
};

TEST_F(StrategyTest, LruEvictsLeastRecentlyAccessed) {
  // Central buffer fits two items; access the first, push a third: the
  // *second* (least recently accessed) must be evicted.
  NclCachingScheme scheme(config(CacheStrategy::kLru, 250));
  const DataItem a = add_data(2);
  push_to_central(scheme, a);
  services_.set_now(100.0);
  const DataItem b = add_data(2);
  push_to_central(scheme, b);
  ASSERT_TRUE(scheme.node_caches(3, a.id));
  ASSERT_TRUE(scheme.node_caches(3, b.id));

  // Touch `a` via a query answered by the central.
  services_.set_now(200.0);
  const Query q = make_query(2, a.id);
  scheme.on_query(services_, q);
  contact(scheme, 2, 3);

  services_.set_now(300.0);
  const DataItem c = add_data(2);
  push_to_central(scheme, c);
  EXPECT_TRUE(scheme.node_caches(3, c.id));
  EXPECT_TRUE(scheme.node_caches(3, a.id));   // recently accessed: kept
  EXPECT_FALSE(scheme.node_caches(3, b.id));  // LRU victim
}

TEST_F(StrategyTest, GdsEvictsLowestValueDensity) {
  // GDS values entries by popularity/size: a queried small item must
  // outlive an unqueried large one.
  NclCachingScheme scheme(config(CacheStrategy::kGds, 250));
  const DataItem small = add_data(2, 50);
  push_to_central(scheme, small);
  services_.set_now(50.0);
  const DataItem large = add_data(2, 200);
  push_to_central(scheme, large);
  ASSERT_TRUE(scheme.node_caches(3, small.id));
  ASSERT_TRUE(scheme.node_caches(3, large.id));

  // Two queries for `small` raise its popularity (and its H value).
  for (int i = 0; i < 2; ++i) {
    services_.set_now(services_.now() + 100.0);
    const Query q = make_query(2, small.id);
    scheme.on_query(services_, q);
    contact(scheme, 2, 3);
  }

  services_.set_now(500.0);
  const DataItem incoming = add_data(2, 150);
  push_to_central(scheme, incoming);
  EXPECT_TRUE(scheme.node_caches(3, incoming.id));
  EXPECT_TRUE(scheme.node_caches(3, small.id));
  EXPECT_FALSE(scheme.node_caches(3, large.id));  // lowest H: evicted
}

TEST_F(StrategyTest, EvictionNeverExceedsWhatIsNeeded) {
  // FIFO with three small items and one incoming small item: exactly one
  // eviction, not a purge.
  NclCachingScheme scheme(config(CacheStrategy::kFifo, 300));
  const DataItem a = add_data(2);
  push_to_central(scheme, a);
  services_.set_now(10.0);
  const DataItem b = add_data(2);
  push_to_central(scheme, b);
  services_.set_now(20.0);
  const DataItem c = add_data(2);
  push_to_central(scheme, c);
  services_.set_now(30.0);
  const DataItem d = add_data(2);
  push_to_central(scheme, d);
  EXPECT_FALSE(scheme.node_caches(3, a.id));  // oldest out
  EXPECT_TRUE(scheme.node_caches(3, b.id));
  EXPECT_TRUE(scheme.node_caches(3, c.id));
  EXPECT_TRUE(scheme.node_caches(3, d.id));
}

TEST_F(StrategyTest, OversizedItemNeverAdmitted) {
  NclCachingScheme scheme(config(CacheStrategy::kFifo, 150));
  const DataItem a = add_data(2);
  push_to_central(scheme, a);
  services_.set_now(10.0);
  const DataItem huge = add_data(2, 500);  // larger than the whole buffer
  push_to_central(scheme, huge);
  EXPECT_FALSE(scheme.node_caches(3, huge.id));
  EXPECT_TRUE(scheme.node_caches(3, a.id));  // nothing evicted for it
}

TEST_F(StrategyTest, QueryTrackingBoundEvictsOldest) {
  NclSchemeConfig c = config(CacheStrategy::kUtilityExchange, 1000);
  c.max_tracked_queries = 8;
  NclCachingScheme scheme(c);
  const DataItem item = add_data(3);  // central is the source: cached there
  scheme.on_data_generated(services_, item);

  // Flood the central with more distinct queries than it may track; the
  // scheme must keep functioning and stay bounded (no assertion failures,
  // responses still generated for fresh queries).
  for (int i = 0; i < 50; ++i) {
    services_.set_now(services_.now() + 10.0);
    const Query q = make_query(0, item.id);
    scheme.on_query(services_, q);
    contact(scheme, 0, 1);
    contact(scheme, 1, 2);
    contact(scheme, 2, 3);
  }
  EXPECT_GT(scheme.responses_sent(), 25u);
  EXPECT_TRUE(scheme.check_invariants(registry_));
}

TEST_F(StrategyTest, PathWeightResponseWithEmptyPathsNeverResponds) {
  NclSchemeConfig c = config(CacheStrategy::kUtilityExchange, 1000);
  c.response_mode = ResponseMode::kPathWeight;
  NclCachingScheme scheme(c);
  // Replace paths with an empty table set (pre-maintenance state).
  services_.set_paths(std::make_shared<const AllPairsPaths>());
  const DataItem item = add_data(3);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(0, item.id);
  scheme.on_query(services_, q);
  contact(scheme, 0, 3);  // direct contact with the caching central
  EXPECT_EQ(scheme.responses_sent(), 0u);
}

}  // namespace
}  // namespace dtn
