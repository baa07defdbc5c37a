// Contract tests for the DTN_CHECK invariant layer (src/common/check.h):
// passing values sail through, violations abort with a message that names
// the invariant and the source location, and a deliberately injected
// violation travels through a real code path (knapsack utility turning NaN)
// into an abort rather than a silently corrupted result.
#include "common/check.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "cache/knapsack.h"
#include "cache/ncl_scheme.h"
#include "cache/replacement.h"
#include "common/rng.h"

namespace dtn {
namespace {

TEST(DtnCheckTest, PassingChecksAreSilent) {
  DTN_CHECK(1 + 1 == 2);
  DTN_CHECK(true, "never printed");
  DTN_CHECK_PROB(0.0);
  DTN_CHECK_PROB(0.5);
  DTN_CHECK_PROB(1.0);
  DTN_CHECK_FINITE(-12.5);
  DTN_CHECK_LE(1, 2);
  DTN_CHECK_LE(2.0, 2.0);
  DTN_CHECK_GE(7, -7);
}

TEST(DtnCheckTest, ChecksEvaluateArgumentsExactlyOnce) {
  int evaluations = 0;
  auto value = [&]() {
    ++evaluations;
    return 0.25;
  };
  DTN_CHECK_PROB(value());
  EXPECT_EQ(evaluations, 1);
  DTN_CHECK_LE(value(), 1.0);
  EXPECT_EQ(evaluations, 2);
}

TEST(DtnCheckDeathTest, FailureNamesInvariantAndLocation) {
  // The message must carry the stringified condition and this file's name,
  // so a violation is diagnosable from the abort message alone.
  EXPECT_DEATH(DTN_CHECK(2 + 2 == 5),
               "DTN_CHECK failed at .*check_test\\.cpp:[0-9]+: 2 \\+ 2 == 5");
  EXPECT_DEATH(DTN_CHECK(false, "buffer occupancy exceeds capacity"),
               "buffer occupancy exceeds capacity");
}

TEST(DtnCheckDeathTest, ProbabilityOutOfRangeAborts) {
  // The acceptance scenario: a reply probability of 1.5 must abort with a
  // message naming the invariant and the offending value.
  const double probability = 1.5;
  EXPECT_DEATH(DTN_CHECK_PROB(probability),
               "probability is a probability in \\[0, 1\\].*value = 1\\.5");
  const double negative = -0.25;
  EXPECT_DEATH(DTN_CHECK_PROB(negative), "value = -0\\.25");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(DTN_CHECK_PROB(nan), "value = nan");
}

TEST(DtnCheckDeathTest, NonFiniteAborts) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(DTN_CHECK_FINITE(inf), "inf is finite.*value = inf");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(DTN_CHECK_FINITE(nan), "value = nan");
}

TEST(DtnCheckDeathTest, ComparisonFailurePrintsBothValues) {
  const long long used = 150;
  const long long capacity = 100;
  EXPECT_DEATH(DTN_CHECK_LE(used, capacity),
               "used <= capacity: 150 vs 100");
  EXPECT_DEATH(DTN_CHECK_GE(capacity, used), "capacity >= used: 100 vs 150");
}

TEST(DtnCheckDeathTest, InjectedInfiniteUtilityAbortsInsideKnapsack) {
  // +inf slips past solve_knapsack's `value < 0.0` argument validation, is
  // always selected by the DP, and before this PR would propagate into
  // total_value and corrupt every downstream utility comparison silently.
  // Now the DTN_CHECK_FINITE contract on the result aborts in the real path.
  std::vector<KnapsackItem> items;
  items.push_back({std::numeric_limits<double>::infinity(), 512});
  EXPECT_DEATH(solve_knapsack(items, 1024, 256),
               "DTN_CHECK failed at .*knapsack\\.cpp:[0-9]+");
}

TEST(DtnCheckDeathTest, InjectedOutOfRangeWeightAbortsInsideReplacement) {
  // The acceptance scenario end-to-end: a path weight of 1.5 (instead of a
  // probability) reaches Algorithm 1, where utility u_i = w_i * p_X is the
  // Bernoulli caching parameter. The DTN_CHECK_PROB contract on u_i aborts
  // inside the replacement path instead of skewing the selection silently.
  std::vector<ReplacementItem> pool;
  ReplacementItem item;
  item.id = 1;
  item.size = 10;
  item.popularity = 1.0;
  item.at_a = true;
  pool.push_back(item);
  ReplacementConfig config;
  Rng rng(7);
  EXPECT_DEATH(plan_replacement(pool, 100, 100, /*weight_a=*/1.5,
                                /*weight_b=*/0.5, config, rng),
               "DTN_CHECK failed at .*replacement\\.cpp:[0-9]+.*"
               "probability in \\[0, 1\\]");
}

TEST(DtnCheckDeathTest, ContactWorkspaceReuseAcrossContactsAborts) {
  // The per-contact workspace is exclusive for the duration of one contact;
  // overlapping begin_contact calls would let two contacts share the same
  // replacement pools and eviction ranking.
  NclCachingScheme::ContactWorkspace ws;
  ws.begin_contact();
  EXPECT_DEATH(ws.begin_contact(),
               "contact workspace reuse across contacts");
  ws.end_contact();
  EXPECT_DEATH(ws.end_contact(),
               "end_contact without a matching begin_contact");
}

TEST(DtnCheckDeathTest, NclSelfContactAborts) {
  // A contact compacts each node's bundle queues in place while appending
  // to the peer's; a node meeting itself would append to the queue being
  // compacted, so the scheme refuses the contact.
  NclSchemeConfig config;
  config.central_nodes = {0};
  config.buffer_capacity.assign(2, 1000);
  NclCachingScheme scheme(config);
  DataRegistry registry;
  Rng rng(7);
  MetricsCollector metrics;
  SimServices services(registry, rng, metrics);
  LinkBudget budget(1000);
  EXPECT_DEATH(scheme.on_contact(services, 1, 1, budget),
               "a contact needs two distinct nodes");
}

}  // namespace
}  // namespace dtn
