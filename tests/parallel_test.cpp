#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace dtn {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  const int resolved = resolve_threads(0);
  EXPECT_GE(resolved, 1);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
}

TEST(ResolveThreads, NegativeThrows) {
  EXPECT_THROW(resolve_threads(-1), std::invalid_argument);
}

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  parallel_for(8, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);

  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, EachIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(8, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, FewerItemsThanThreads) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.thread_count(), 8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SerialKnobRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(1, 16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  for (int trial = 0; trial < 10; ++trial) {
    try {
      parallel_for(8, 100, [&](std::size_t i) {
        if (i % 2 == 1) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      // All items run; the recorded error is deterministically the lowest
      // throwing index regardless of completion order.
      EXPECT_STREQ(error.what(), "boom 1");
    }
  }
}

TEST(ParallelFor, PoolIsReusableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(8, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::atomic<int> sum{0};
  pool.parallel_for(8, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ParallelFor, NestedUseRunsInlineWithoutDeadlock) {
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> nested_inline{0};
  parallel_for(4, 8, [&](std::size_t outer) {
    EXPECT_TRUE(ThreadPool::in_worker());
    // A nested parallel_for from inside a pool task must run inline on the
    // calling worker instead of re-entering the pool.
    parallel_for(4, 8, [&](std::size_t inner) {
      ++hits[outer * 8 + inner];
      if (ThreadPool::in_worker()) ++nested_inline;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(nested_inline.load(), 64);
}

TEST(ParallelFor, ConcurrentExternalSubmittersSerialize) {
  std::vector<std::atomic<int>> hits(400);
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&, s] {
      parallel_for(4, 100, [&](std::size_t i) { ++hits[100 * s + i]; });
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, CollectsResultsInIndexOrder) {
  const auto out = parallel_map(8, 500, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, WorksWithoutDefaultConstructor) {
  struct NoDefault {
    explicit NoDefault(int v) : value(v) {}
    int value;
  };
  const auto out =
      parallel_map(8, 64, [](std::size_t i) { return NoDefault(static_cast<int>(i)); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, static_cast<int>(i));
  }
}

TEST(DeriveSeed, DistinctStreamsAndDeterministic) {
  EXPECT_EQ(derive_seed(7, 0), derive_seed(7, 0));
  EXPECT_NE(derive_seed(7, 0), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));
  // Streams derived from consecutive indices produce uncorrelated draws.
  Rng a(derive_seed(7, 0)), b(derive_seed(7, 1));
  EXPECT_NE(a(), b());
}

TEST(ThreadPool, SerialPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace dtn
