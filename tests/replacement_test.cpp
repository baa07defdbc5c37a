#include "cache/replacement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

namespace dtn {
namespace {

// Sizes and capacities are whole knapsack units, so the pure-knapsack
// selection sees the integers the tests spell out.
constexpr Bytes kMiB = kKnapsackUnit;

ReplacementItem item(DataId id, Bytes size, double popularity, bool at_a) {
  ReplacementItem r;
  r.id = id;
  r.size = size;
  r.popularity = popularity;
  r.at_a = at_a;
  return r;
}

ReplacementConfig deterministic_config() {
  ReplacementConfig c;
  c.probabilistic = false;
  return c;
}

Bytes total_size(const std::vector<ReplacementItem>& pool,
                 const std::vector<DataId>& ids) {
  Bytes total = 0;
  for (DataId id : ids) {
    for (const auto& it : pool) {
      if (it.id == id) total += it.size;
    }
  }
  return total;
}

TEST(Replacement, EmptyPool) {
  Rng rng(1);
  const ReplacementPlan plan =
      plan_replacement({}, 100 * kMiB, 100 * kMiB, 0.5, 0.2,
                       deterministic_config(), rng);
  EXPECT_TRUE(plan.keep_at_a.empty());
  EXPECT_TRUE(plan.keep_at_b.empty());
  EXPECT_TRUE(plan.dropped.empty());
}

TEST(Replacement, EverythingFitsNothingDropped) {
  Rng rng(1);
  const std::vector<ReplacementItem> pool{
      item(1, 10 * kMiB, 0.9, true), item(2, 10 * kMiB, 0.5, false),
      item(3, 10 * kMiB, 0.1, true)};
  const ReplacementPlan plan = plan_replacement(
      pool, 30 * kMiB, 30 * kMiB, 0.8, 0.3, deterministic_config(), rng);
  EXPECT_TRUE(plan.dropped.empty());
  EXPECT_EQ(plan.keep_at_a.size() + plan.keep_at_b.size(), 3u);
}

TEST(Replacement, HigherWeightNodeGetsPopularData) {
  Rng rng(2);
  // Node A nearer the central (0.9 vs 0.1); capacity forces a split.
  const std::vector<ReplacementItem> pool{
      item(1, 10 * kMiB, 0.9, false), item(2, 10 * kMiB, 0.8, false),
      item(3, 10 * kMiB, 0.2, true), item(4, 10 * kMiB, 0.1, true)};
  const ReplacementPlan plan = plan_replacement(
      pool, 20 * kMiB, 20 * kMiB, 0.9, 0.1, deterministic_config(), rng);
  // A picks first and takes the two most popular items.
  std::set<DataId> at_a(plan.keep_at_a.begin(), plan.keep_at_a.end());
  EXPECT_TRUE(at_a.contains(1));
  EXPECT_TRUE(at_a.contains(2));
}

TEST(Replacement, BNodePicksFirstWhenCloser) {
  Rng rng(3);
  const std::vector<ReplacementItem> pool{item(1, 10 * kMiB, 0.9, true),
                                          item(2, 10 * kMiB, 0.1, true)};
  const ReplacementPlan plan = plan_replacement(
      pool, 10 * kMiB, 10 * kMiB, 0.1, 0.9, deterministic_config(), rng);
  // B has the higher weight: the popular item moves to B.
  ASSERT_EQ(plan.keep_at_b.size(), 1u);
  EXPECT_EQ(plan.keep_at_b[0], 1);
  ASSERT_EQ(plan.keep_at_a.size(), 1u);
  EXPECT_EQ(plan.keep_at_a[0], 2);
}

TEST(Replacement, CapacityRespected) {
  Rng rng(4);
  std::vector<ReplacementItem> pool;
  for (DataId id = 0; id < 10; ++id) {
    pool.push_back(item(id, 7 * kMiB, 0.5, id % 2 == 0));
  }
  const ReplacementPlan plan = plan_replacement(
      pool, 20 * kMiB, 15 * kMiB, 0.7, 0.4, deterministic_config(), rng);
  EXPECT_LE(total_size(pool, plan.keep_at_a), 20 * kMiB);
  EXPECT_LE(total_size(pool, plan.keep_at_b), 15 * kMiB);
}

TEST(Replacement, LowestPopularityDroppedUnderPressure) {
  Rng rng(5);
  // Fig. 8(b): when buffers shrink, the least popular item is evicted.
  const std::vector<ReplacementItem> pool{
      item(1, 10 * kMiB, 0.9, true), item(2, 10 * kMiB, 0.7, true),
      item(3, 10 * kMiB, 0.05, false)};
  const ReplacementPlan plan = plan_replacement(
      pool, 10 * kMiB, 10 * kMiB, 0.9, 0.5, deterministic_config(), rng);
  ASSERT_EQ(plan.dropped.size(), 1u);
  EXPECT_EQ(plan.dropped[0], 3);
}

TEST(Replacement, PartitionIsExactAndDisjoint) {
  Rng rng(6);
  std::vector<ReplacementItem> pool;
  for (DataId id = 0; id < 12; ++id) {
    pool.push_back(item(id, (5 + id) * kMiB,
                        0.1 * static_cast<double>(id % 10), id % 3 == 0));
  }
  ReplacementConfig config;
  config.probabilistic = true;
  const ReplacementPlan plan =
      plan_replacement(pool, 40 * kMiB, 30 * kMiB, 0.6, 0.4, config, rng);

  std::set<DataId> all;
  for (DataId id : plan.keep_at_a) EXPECT_TRUE(all.insert(id).second);
  for (DataId id : plan.keep_at_b) EXPECT_TRUE(all.insert(id).second);
  for (DataId id : plan.dropped) EXPECT_TRUE(all.insert(id).second);
  EXPECT_EQ(all.size(), pool.size());
}

TEST(Replacement, MovedItemsTrackedWithBytes) {
  Rng rng(7);
  const std::vector<ReplacementItem> pool{item(1, 25 * kMiB, 0.9, false),
                                          item(2, 10 * kMiB, 0.1, true)};
  const ReplacementPlan plan = plan_replacement(
      pool, 100 * kMiB, 100 * kMiB, 0.9, 0.1, deterministic_config(), rng);
  // Item 1 moves from B to A (A is closer to the central and has room).
  ASSERT_EQ(plan.moved.size(), 1u);
  EXPECT_EQ(plan.moved[0], 1);
  EXPECT_EQ(plan.moved_bytes, 25 * kMiB);
}

TEST(Replacement, NoMovesWhenEverythingStays) {
  Rng rng(8);
  const std::vector<ReplacementItem> pool{item(1, 10 * kMiB, 0.9, true),
                                          item(2, 10 * kMiB, 0.8, true)};
  const ReplacementPlan plan = plan_replacement(
      pool, 100 * kMiB, 100 * kMiB, 0.9, 0.1, deterministic_config(), rng);
  EXPECT_TRUE(plan.moved.empty());
  EXPECT_EQ(plan.moved_bytes, 0);
}

TEST(Replacement, DuplicateIdsRejected) {
  Rng rng(9);
  const std::vector<ReplacementItem> pool{item(1, 10 * kMiB, 0.5, true),
                                          item(1, 10 * kMiB, 0.5, false)};
  EXPECT_THROW(plan_replacement(pool, 100 * kMiB, 100 * kMiB, 0.5, 0.5,
                                deterministic_config(), rng),
               std::invalid_argument);
}

TEST(Replacement, InvalidSizesRejected) {
  Rng rng(10);
  EXPECT_THROW(plan_replacement({item(1, 0, 0.5, true)}, 10 * kMiB, 10 * kMiB,
                                0.5, 0.5, deterministic_config(), rng),
               std::invalid_argument);
  EXPECT_THROW(plan_replacement({item(1, 5 * kMiB, 0.5, true)}, -1, 10 * kMiB,
                                0.5, 0.5, deterministic_config(), rng),
               std::invalid_argument);
}

TEST(Replacement, ProbabilisticStillFillsBuffers) {
  // Algorithm 1 with a deterministic fill pass must not waste space: with
  // ample capacity, nothing is dropped even when utilities are tiny.
  Rng rng(11);
  std::vector<ReplacementItem> pool;
  for (DataId id = 0; id < 8; ++id) {
    pool.push_back(item(id, 10 * kMiB, 0.01, true));
  }
  ReplacementConfig config;
  config.probabilistic = true;
  const ReplacementPlan plan =
      plan_replacement(pool, 80 * kMiB, 80 * kMiB, 0.9, 0.1, config, rng);
  EXPECT_TRUE(plan.dropped.empty());
}

TEST(Replacement, ProbabilisticSpreadsPopularData) {
  // With probabilistic selection, the most popular item should sometimes
  // end up at the *lower*-weight node — the global copy-control effect of
  // Sec. V-D.3. The deterministic variant never does this.
  ReplacementConfig prob;
  prob.probabilistic = true;
  int at_b_count = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) + 1000);
    const std::vector<ReplacementItem> pool{
        item(1, 10 * kMiB, 0.5, true), item(2, 10 * kMiB, 0.45, true),
        item(3, 10 * kMiB, 0.4, false)};
    const ReplacementPlan plan =
        plan_replacement(pool, 10 * kMiB, 20 * kMiB, 0.9, 0.5, prob, rng);
    if (std::find(plan.keep_at_b.begin(), plan.keep_at_b.end(), 1) !=
        plan.keep_at_b.end()) {
      ++at_b_count;
    }
  }
  EXPECT_GT(at_b_count, 10);   // happens with real frequency
  EXPECT_LT(at_b_count, 190);  // but is not the norm
}

TEST(Replacement, DeterministicAlwaysGivesPopularToCloserNode) {
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial));
    const std::vector<ReplacementItem> pool{item(1, 10 * kMiB, 0.9, false),
                                            item(2, 10 * kMiB, 0.2, true)};
    const ReplacementPlan plan = plan_replacement(
        pool, 10 * kMiB, 10 * kMiB, 0.9, 0.5, deterministic_config(), rng);
    ASSERT_EQ(plan.keep_at_a.size(), 1u);
    EXPECT_EQ(plan.keep_at_a[0], 1);
  }
}

// Property sweep over random pools: the plan always partitions the pool and
// respects both capacities.
class ReplacementProperty : public testing::TestWithParam<int> {};

TEST_P(ReplacementProperty, PartitionAndCapacityInvariants) {
  // Eighths of a knapsack unit: sizes and capacities round to few units.
  constexpr Bytes kEighth = kMiB / 8;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::vector<ReplacementItem> pool;
  const int n = 1 + GetParam() % 15;
  for (DataId id = 0; id < n; ++id) {
    pool.push_back(item(id, rng.uniform_int(1, 40) * kEighth,
                        rng.uniform(0.0, 1.0), rng.bernoulli(0.5)));
  }
  const Bytes cap_a = rng.uniform_int(0, 200) * kEighth;
  const Bytes cap_b = rng.uniform_int(0, 200) * kEighth;
  ReplacementConfig config;
  config.probabilistic = GetParam() % 2 == 0;
  const ReplacementPlan plan = plan_replacement(
      pool, cap_a, cap_b, rng.uniform(), rng.uniform(), config, rng);

  EXPECT_EQ(plan.keep_at_a.size() + plan.keep_at_b.size() +
                plan.dropped.size(),
            pool.size());
  EXPECT_LE(total_size(pool, plan.keep_at_a), cap_a);
  EXPECT_LE(total_size(pool, plan.keep_at_b), cap_b);

  Bytes moved_bytes = 0;
  for (DataId id : plan.moved) {
    for (const auto& it : pool) {
      if (it.id == id) moved_bytes += it.size;
    }
  }
  EXPECT_EQ(moved_bytes, plan.moved_bytes);
}

INSTANTIATE_TEST_SUITE_P(RandomPools, ReplacementProperty,
                         testing::Range(0, 40));

}  // namespace
}  // namespace dtn
