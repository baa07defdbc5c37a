#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/bundle_cache.h"
#include "baselines/cache_data.h"
#include "baselines/no_cache.h"
#include "baselines/random_cache.h"
#include "graph/all_pairs.h"
#include "graph/contact_graph.h"

namespace dtn {
namespace {

/// Line 0 - 1 - 2 - 3 driven manually, mirroring the NCL scheme tests.
class BaselinesTest : public testing::Test {
 protected:
  BaselinesTest() : rng_(17), services_(registry_, rng_, metrics_) {
    ContactGraph graph(4);
    graph.set_rate(0, 1, 1.0 / 600.0);
    graph.set_rate(1, 2, 1.0 / 600.0);
    graph.set_rate(2, 3, 1.0 / 600.0);
    services_.set_paths(std::make_shared<const AllPairsPaths>(graph, hours(1)));
    services_.set_now(0.0);
  }

  FloodingConfig flooding_config(Bytes buffer = 1000) {
    FloodingConfig c;
    c.buffer_capacity.assign(4, buffer);
    return c;
  }

  DataItem add_data(NodeId source, Bytes size = 100, Time expires = 1e9) {
    DataItem item;
    item.source = source;
    item.created = services_.now();
    item.expires = expires;
    item.size = size;
    const DataId id = registry_.add(item);
    return registry_.get(id);
  }

  Query make_query(NodeId requester, DataId data, Time t_q = 1e6) {
    Query q;
    q.id = next_query_++;
    q.requester = requester;
    q.data = data;
    q.issued = services_.now();
    q.expires = services_.now() + t_q;
    metrics_.on_query_issued(q);
    return q;
  }

  void contact(Scheme& scheme, NodeId a, NodeId b, Bytes budget = 1 << 30) {
    LinkBudget link(budget);
    scheme.on_contact(services_, a, b, link);
  }

  /// Drives the query from node 3 to the source at node 0 and the response
  /// back, along the line.
  void pump_line(Scheme& scheme) {
    contact(scheme, 3, 2);
    contact(scheme, 2, 1);
    contact(scheme, 1, 0);
    contact(scheme, 0, 1);
    contact(scheme, 1, 2);
    contact(scheme, 2, 3);
  }

  DataRegistry registry_;
  Rng rng_;
  MetricsCollector metrics_;
  SimServices services_;
  QueryId next_query_ = 0;
};

TEST_F(BaselinesTest, ConfigValidation) {
  FloodingConfig c;  // empty buffers
  EXPECT_THROW(NoCacheScheme{c}, std::invalid_argument);
  c = flooding_config();
  c.buffer_capacity[0] = -1;
  EXPECT_THROW(NoCacheScheme{c}, std::invalid_argument);
}

TEST_F(BaselinesTest, NoCacheSourceAnswersQuery) {
  NoCacheScheme scheme(flooding_config());
  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);

  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  pump_line(scheme);
  EXPECT_EQ(metrics_.queries_satisfied(), 1u);
  EXPECT_EQ(scheme.cached_copies(0.0), 0u);  // never caches
}

TEST_F(BaselinesTest, NoCacheLocalNativeHit) {
  NoCacheScheme scheme(flooding_config());
  const DataItem item = add_data(2);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(2, item.id);
  scheme.on_query(services_, q);
  EXPECT_EQ(metrics_.queries_satisfied(), 1u);
}

TEST_F(BaselinesTest, RandomCacheCachesAtRequester) {
  RandomCacheScheme scheme(flooding_config());
  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);

  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  pump_line(scheme);
  ASSERT_EQ(metrics_.queries_satisfied(), 1u);
  EXPECT_TRUE(scheme.node_caches(3, item.id));
  EXPECT_EQ(scheme.cached_copies(0.0), 1u);

  // A second requester near node 3 can now be served from the cache.
  const Query q2 = make_query(2, item.id);
  scheme.on_query(services_, q2);
  contact(scheme, 2, 3);  // flooded copy reaches the caching node 3
  contact(scheme, 3, 2);  // response returns
  EXPECT_EQ(metrics_.queries_satisfied(), 2u);
}

TEST_F(BaselinesTest, RandomCacheEvictsLruWhenFull) {
  RandomCacheScheme scheme(flooding_config(/*buffer=*/150));
  const DataItem a = add_data(0);
  const DataItem b = add_data(1);
  scheme.on_data_generated(services_, a);
  scheme.on_data_generated(services_, b);

  const Query qa = make_query(3, a.id);
  scheme.on_query(services_, qa);
  pump_line(scheme);
  ASSERT_TRUE(scheme.node_caches(3, a.id));

  services_.set_now(100.0);
  const Query qb = make_query(3, b.id);
  scheme.on_query(services_, qb);
  contact(scheme, 3, 2);
  contact(scheme, 2, 1);
  contact(scheme, 1, 2);
  contact(scheme, 2, 3);
  ASSERT_TRUE(scheme.node_caches(3, b.id));
  EXPECT_FALSE(scheme.node_caches(3, a.id));  // LRU victim
  EXPECT_GE(scheme.evictions(), 1u);
}

TEST_F(BaselinesTest, CacheDataRelaysCachePassByData) {
  CacheDataScheme scheme(flooding_config());
  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);

  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  pump_line(scheme);
  ASSERT_EQ(metrics_.queries_satisfied(), 1u);
  // The response travelled 0 -> 1 -> 2 -> 3: relays 1 and 2 cached it.
  EXPECT_TRUE(scheme.node_caches(1, item.id) || scheme.node_caches(2, item.id));
}

TEST_F(BaselinesTest, BundleCacheRequiresCentralityKnowledge) {
  BundleCacheScheme scheme(flooding_config());
  // Before any maintenance tick the scheme has no centrality estimates and
  // must not cache anything.
  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  pump_line(scheme);
  EXPECT_EQ(scheme.cached_copies(0.0), 0u);
}

TEST_F(BaselinesTest, BundleCacheCachesAtCentralNodesOnly) {
  // The line with a slow last edge: node 3 rarely reaches anyone within
  // the hour, so its centrality is below a quarter of the maximum, the
  // admission threshold, while every other node's is above it.
  ContactGraph graph(4);
  graph.set_rate(0, 1, 1.0 / 600.0);
  graph.set_rate(1, 2, 1.0 / 600.0);
  graph.set_rate(2, 3, 1.0 / hours(100));
  services_.set_paths(std::make_shared<const AllPairsPaths>(graph, hours(1)));
  BundleCacheScheme scheme(flooding_config());
  scheme.on_maintenance(services_);  // learn centralities from paths

  const double max_centrality =
      std::max(scheme.centrality(1), scheme.centrality(2));
  EXPECT_LT(scheme.centrality(3), 0.25 * max_centrality);
  EXPECT_GT(scheme.centrality(0), 0.25 * max_centrality);

  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  pump_line(scheme);
  ASSERT_EQ(metrics_.queries_satisfied(), 1u);
  // The relays admit the response; node 3, the requester, may not.
  EXPECT_TRUE(scheme.node_caches(1, item.id) || scheme.node_caches(2, item.id));
  EXPECT_FALSE(scheme.node_caches(3, item.id));
}

TEST_F(BaselinesTest, QueryRidesGradientTowardsSource) {
  NoCacheScheme scheme(flooding_config());
  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);

  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  // A contact away from the source must not move the query.
  contact(scheme, 3, 2);  // towards source: moves to 2
  contact(scheme, 2, 3);  // back towards 3: must NOT move
  contact(scheme, 2, 1);  // onward to 1
  contact(scheme, 1, 0);  // reaches the source; response generated
  contact(scheme, 0, 1);
  contact(scheme, 1, 2);
  contact(scheme, 2, 3);
  EXPECT_EQ(metrics_.queries_satisfied(), 1u);
}

TEST_F(BaselinesTest, DirectContactWithHolderShortCircuits) {
  NoCacheScheme scheme(flooding_config());
  const DataItem item = add_data(2);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  // Node 3 meets the source directly: answered on the spot.
  contact(scheme, 3, 2);
  contact(scheme, 2, 3);
  EXPECT_EQ(metrics_.queries_satisfied(), 1u);
}

TEST_F(BaselinesTest, ExpiredDataNotServed) {
  NoCacheScheme scheme(flooding_config());
  const DataItem item = add_data(0, 100, /*expires=*/50.0);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(3, item.id);
  scheme.on_query(services_, q);
  services_.set_now(100.0);  // data expired
  pump_line(scheme);
  EXPECT_EQ(metrics_.queries_satisfied(), 0u);
}

TEST_F(BaselinesTest, QueryBudgetExhaustionBlocksFlooding) {
  NoCacheScheme scheme(flooding_config());
  const DataItem item = add_data(0);
  scheme.on_data_generated(services_, item);
  const Query q = make_query(1, item.id);
  scheme.on_query(services_, q);
  contact(scheme, 1, 0, /*budget=*/0);  // no bytes: nothing moves
  EXPECT_EQ(metrics_.queries_satisfied(), 0u);
  contact(scheme, 1, 0);  // retry with budget
  contact(scheme, 0, 1);
  EXPECT_EQ(metrics_.queries_satisfied(), 1u);
}

}  // namespace
}  // namespace dtn
