#include "graph/hypoexp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace dtn {
namespace {

TEST(Hypoexp, EmptySumIsDegenerateAtZero) {
  EXPECT_DOUBLE_EQ(hypoexp_cdf({}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(hypoexp_cdf({}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(hypoexp_cdf({}, -1.0), 0.0);
}

TEST(Hypoexp, SingleRateIsExponentialCdf) {
  const double rate = 0.5;
  for (double t : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(hypoexp_cdf({rate}, t), 1.0 - std::exp(-rate * t), 1e-12);
  }
}

TEST(Hypoexp, NonPositiveTimeIsZero) {
  EXPECT_DOUBLE_EQ(hypoexp_cdf({1.0, 2.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(hypoexp_cdf({1.0, 2.0}, -5.0), 0.0);
}

TEST(Hypoexp, RejectsNonPositiveRates) {
  EXPECT_THROW(hypoexp_cdf({1.0, 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(hypoexp_cdf({-2.0}, 1.0), std::invalid_argument);
}

TEST(Hypoexp, TwoDistinctRatesClosedForm) {
  // P(X1+X2 <= t) with rates a, b:
  // 1 - (b e^{-a t} - a e^{-b t}) / (b - a)
  const double a = 1.0, b = 3.0, t = 0.7;
  const double expected =
      1.0 - (b * std::exp(-a * t) - a * std::exp(-b * t)) / (b - a);
  EXPECT_NEAR(hypoexp_cdf({a, b}, t), expected, 1e-12);
  EXPECT_NEAR(hypoexp_cdf({b, a}, t), expected, 1e-12);  // order-invariant
}

TEST(Hypoexp, EqualRatesUseErlang) {
  // Sum of 3 Exp(2) = Erlang(3, 2).
  const double t = 1.3;
  EXPECT_NEAR(hypoexp_cdf({2.0, 2.0, 2.0}, t), erlang_cdf(3, 2.0, t), 1e-13);
}

TEST(Erlang, ShapeOneIsExponential) {
  EXPECT_NEAR(erlang_cdf(1, 0.7, 2.0), 1.0 - std::exp(-1.4), 1e-13);
}

TEST(Erlang, KnownValue) {
  // Erlang(2, 1) at t: 1 - e^{-t}(1 + t).
  const double t = 1.5;
  EXPECT_NEAR(erlang_cdf(2, 1.0, t), 1.0 - std::exp(-t) * (1.0 + t), 1e-13);
}

TEST(Erlang, InvalidArguments) {
  EXPECT_THROW(erlang_cdf(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(erlang_cdf(2, 0.0, 1.0), std::invalid_argument);
}

TEST(Hypoexp, UniformizationAgreesWithClosedForm) {
  const std::vector<double> rates{0.5, 1.7, 4.1, 9.3};
  for (double t : {0.05, 0.3, 1.0, 2.5, 8.0}) {
    EXPECT_NEAR(hypoexp_cdf_closed_form(rates, t),
                hypoexp_cdf_uniformization(rates, t), 1e-9)
        << "t=" << t;
  }
}

TEST(Hypoexp, UniformizationAgreesWithErlang) {
  const std::vector<double> rates{2.0, 2.0, 2.0, 2.0};
  for (double t : {0.1, 0.9, 2.0, 5.0}) {
    EXPECT_NEAR(erlang_cdf(4, 2.0, t), hypoexp_cdf_uniformization(rates, t),
                1e-9);
  }
}

TEST(Hypoexp, NearEqualRatesAreStable) {
  // Closed form is catastrophically unstable here; the dispatcher must
  // produce a sane probability.
  const std::vector<double> rates{1.0, 1.0 + 1e-9, 1.0 + 2e-9};
  const double p = hypoexp_cdf(rates, 2.0);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  EXPECT_NEAR(p, erlang_cdf(3, 1.0, 2.0), 1e-6);
}

TEST(Hypoexp, ClosedFormRejectsDuplicates) {
  EXPECT_THROW(hypoexp_cdf_closed_form({1.0, 1.0}, 1.0), std::invalid_argument);
}

TEST(Hypoexp, MonotoneInTime) {
  const std::vector<double> rates{0.3, 1.1, 2.2};
  double prev = 0.0;
  for (double t = 0.1; t < 20.0; t += 0.37) {
    const double p = hypoexp_cdf(rates, t);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Hypoexp, AddingAHopDecreasesProbability) {
  // Core property justifying Dijkstra relaxation: a longer path is slower.
  std::vector<double> rates{1.5, 0.7};
  const double t = 2.0;
  const double shorter = hypoexp_cdf(rates, t);
  rates.push_back(3.0);
  const double longer = hypoexp_cdf(rates, t);
  EXPECT_LT(longer, shorter);
}

TEST(Hypoexp, ApproachesOneForLargeTime) {
  EXPECT_NEAR(hypoexp_cdf({0.5, 1.0, 2.0}, 1e4), 1.0, 1e-9);
}

TEST(Hypoexp, Mean) {
  EXPECT_DOUBLE_EQ(hypoexp_mean({0.5, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(hypoexp_mean({}), 0.0);
}

TEST(Hypoexp, MatchesMonteCarlo) {
  const std::vector<double> rates{0.8, 2.5, 1.2};
  const double t = 2.0;
  Rng rng(77);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    double total = 0.0;
    for (double r : rates) total += rng.exponential(r);
    if (total <= t) ++hits;
  }
  EXPECT_NEAR(hypoexp_cdf(rates, t), static_cast<double>(hits) / n, 5e-3);
}

// Property sweep: the three computation paths agree across random rate sets.
class HypoexpCrossValidation : public testing::TestWithParam<int> {};

TEST_P(HypoexpCrossValidation, ClosedFormVsUniformization) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int hops = 2 + GetParam() % 6;
  std::vector<double> rates;
  for (int i = 0; i < hops; ++i) rates.push_back(rng.uniform(0.05, 5.0));
  for (double t : {0.2, 1.0, 4.0}) {
    const double closed = hypoexp_cdf_closed_form(rates, t);
    const double unif = hypoexp_cdf_uniformization(rates, t);
    EXPECT_NEAR(closed, unif, 1e-7)
        << "hops=" << hops << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRates, HypoexpCrossValidation,
                         testing::Range(1, 25));

TEST_P(HypoexpCrossValidation, ErlangVsUniformization) {
  // Equal rates sit in both Erlang's and uniformization's domain; the
  // closed form is excluded (it requires strictly distinct rates).
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const int shape = 2 + GetParam() % 7;
  const double rate = rng.uniform(0.05, 5.0);
  const std::vector<double> rates(static_cast<std::size_t>(shape), rate);
  for (double t : {0.2, 1.0, 4.0}) {
    EXPECT_NEAR(erlang_cdf(shape, rate, t),
                hypoexp_cdf_uniformization(rates, t), 1e-7)
        << "shape=" << shape << " rate=" << rate << " t=" << t;
  }
}

TEST_P(HypoexpCrossValidation, WorkspaceOverloadsAreBitIdentical) {
  // The workspace overloads move scratch off the heap; they promise the
  // same bits, not just the same tolerance. One workspace reused across
  // every evaluation (dirty from the previous one) vs a fresh allocating
  // call — EXPECT_EQ, no EXPECT_NEAR.
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  HypoexpWorkspace ws;
  for (int trial = 0; trial < 8; ++trial) {
    const int hops = 1 + static_cast<int>(rng.uniform_int(0, 6));
    std::vector<double> rates;
    for (int i = 0; i < hops; ++i) rates.push_back(rng.uniform(0.05, 5.0));
    // Every other trial, force the near-equal tier (sorted-probe + the
    // uniformization fallback) by duplicating a rate with a tiny nudge.
    if (hops >= 2 && trial % 2 == 0) {
      rates[1] = rates[0] * (1.0 + 1e-9);
    }
    for (double t : {-1.0, 0.2, 1.0, 4.0}) {
      EXPECT_EQ(hypoexp_cdf(rates, t), hypoexp_cdf(rates, t, ws))
          << "hops=" << hops << " t=" << t;
      EXPECT_EQ(hypoexp_cdf_uniformization(rates, t),
                hypoexp_cdf_uniformization(rates, t, ws))
          << "hops=" << hops << " t=" << t;
    }
  }
}

TEST_P(HypoexpCrossValidation, AppendEvaluatorMatchesDispatcherBitwise) {
  // A HypoexpChainTable grown one rate at a time (each slot extended from
  // the previous one) must evaluate every append to hypoexp_cdf's exact
  // bits, across every dispatch tier. Adversarial appends at each length:
  // a fresh rate (closed form), the chain's first rate (duplicate ->
  // uniformization, or Erlang when the chain is uniform), 1e-9-relative
  // neighbours of the first and last rates (near-equal probe ->
  // uniformization) and, once the chain holds a near pair, a rate inside
  // it. The chain grows by fresh rates, by repeats of its first rate or by
  // a random mix that includes near-duplicates.
  Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  HypoexpWorkspace ws;
  HypoexpChainTable table;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t len = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const double t = rng.uniform(0.1, 5.0);
    const auto one_minus_exp = [t](double x) { return 1.0 - std::exp(-x * t); };
    table.prepare(len + 1, len, t);
    table.set_empty(0);
    std::vector<double> chain;
    double near_low = 0.0;  // lower rate of a near pair in the chain, if any
    for (std::size_t i = 0;; ++i) {
      std::vector<double> appends{rng.uniform(0.05, 5.0)};
      if (!chain.empty()) {
        appends.push_back(chain[0]);
        appends.push_back(chain[0] * (1.0 + 1e-9));
        appends.push_back(chain.back() * (1.0 - 1e-9));
      }
      if (near_low > 0.0) appends.push_back(near_low * (1.0 + 0.5e-9));
      for (const double x : appends) {
        chain.push_back(x);
        EXPECT_EQ(table.eval(i, x, one_minus_exp(x), ws), hypoexp_cdf(chain, t))
            << "p=" << i << " x=" << x << " t=" << t << " trial=" << trial;
        chain.pop_back();
      }
      if (i == len) break;

      double next = appends[0];
      if (!chain.empty() && trial % 3 == 1) next = chain[0];
      if (!chain.empty() && trial % 3 == 2) {
        const int pick = static_cast<int>(rng.uniform_int(0, 2));
        if (pick == 1) next = chain[0];
        if (pick == 2) {
          next = chain.back() * (1.0 + 1e-9);
          near_low = chain.back();
        }
      }
      table.extend(i + 1, i, next, one_minus_exp(next));
      chain.push_back(next);
    }
  }
}

TEST(HypoexpChainTable, RejectsNonPositiveRates) {
  HypoexpWorkspace ws;
  HypoexpChainTable table;
  table.prepare(2, 1, 1.0);
  table.set_empty(0);
  EXPECT_THROW(table.extend(1, 0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(table.eval(0, -1.0, 0.0, ws), std::invalid_argument);
}

}  // namespace
}  // namespace dtn
