#include "graph/hypoexp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"

namespace dtn {
namespace {

void validate_rates(const std::vector<double>& rates) {
  for (double r : rates) {
    if (!(r > 0.0)) throw std::invalid_argument("hypoexp rates must be > 0");
  }
}

/// True when any two rates are close enough to make the partial-fraction
/// coefficients numerically unreliable. The two-rate case dominates the
/// path engine (short opportunistic paths) and needs no sorted copy at
/// all: min/max of two elements reproduces the sorted comparison exactly.
bool has_near_equal_rates(const std::vector<double>& rates,
                          HypoexpWorkspace& ws) {
  if (rates.size() == 2) {
    const double lo = std::min(rates[0], rates[1]);
    const double hi = std::max(rates[0], rates[1]);
    return (hi - lo) <= 1e-6 * hi;
  }
  ws.sorted.assign(rates.begin(), rates.end());
  std::sort(ws.sorted.begin(), ws.sorted.end());
  for (std::size_t i = 1; i < ws.sorted.size(); ++i) {
    if ((ws.sorted[i] - ws.sorted[i - 1]) <= 1e-6 * ws.sorted[i]) return true;
  }
  return false;
}

}  // namespace

double erlang_cdf(int shape, double rate, double t) {
  if (shape < 1 || !(rate > 0.0)) {
    throw std::invalid_argument("erlang_cdf requires shape >= 1, rate > 0");
  }
  DTN_COUNT(kHypoexpErlangEvals);
  if (t <= 0.0) return 0.0;
  // 1 - e^{-rt} * sum_{i=0}^{shape-1} (rt)^i / i!
  const double x = rate * t;
  double term = 1.0;  // (rt)^0 / 0!
  double sum = 1.0;
  for (int i = 1; i < shape; ++i) {
    term *= x / static_cast<double>(i);
    sum += term;
  }
  const double result = 1.0 - std::exp(-x) * sum;
  DTN_CHECK_FINITE(result);
  return std::clamp(result, 0.0, 1.0);
}

double hypoexp_cdf_closed_form(const std::vector<double>& rates, double t) {
  validate_rates(rates);
  if (rates.empty()) return t >= 0.0 ? 1.0 : 0.0;
  if (t <= 0.0) return 0.0;
  DTN_COUNT(kHypoexpClosedFormEvals);
  double result = 0.0;
  const std::size_t r = rates.size();
  for (std::size_t k = 0; k < r; ++k) {
    double coeff = 1.0;
    for (std::size_t s = 0; s < r; ++s) {
      if (s == k) continue;
      const double denom = rates[s] - rates[k];
      if (denom == 0.0) {
        throw std::invalid_argument(
            "hypoexp_cdf_closed_form requires strictly distinct rates");
      }
      coeff *= rates[s] / denom;
    }
    result += coeff * stage_cdf(rates[k], t);
  }
  // Partial-fraction coefficients alternate in sign and can be huge; the
  // dispatch in hypoexp_cdf routes near-equal rates to uniformization, so a
  // non-finite sum here means that guard failed (Eq. 2 weight corrupted).
  DTN_CHECK_FINITE(result);
  return std::clamp(result, 0.0, 1.0);
}

double hypoexp_cdf_uniformization(const std::vector<double>& rates, double t,
                                  HypoexpWorkspace& ws) {
  constexpr double kTolerance = 1e-12;  // truncation error bound
  validate_rates(rates);
  if (rates.empty()) return t >= 0.0 ? 1.0 : 0.0;
  if (t <= 0.0) return 0.0;
  DTN_COUNT(kHypoexpUniformizationEvals);

  const std::size_t r = rates.size();
  const double big_lambda = *std::max_element(rates.begin(), rates.end());
  const double a = big_lambda * t;
  const double log_a = std::log(a);  // loop-invariant

  // ws.v[k] = probability of being in transient phase k after m uniformized
  // jumps; `absorbed` = probability of having completed all phases.
  ws.v.assign(r, 0.0);
  ws.v[0] = 1.0;
  double absorbed = 0.0;

  // Poisson(a) pmf computed iteratively. Start from m = 0.
  double log_pois = -a;  // log pmf at m=0
  double result = 0.0;
  double tail = 1.0;  // remaining Poisson mass, bounds truncation error

  // Upper bound on iterations: mean + wide safety margin.
  const std::size_t max_terms =
      static_cast<std::size_t>(a + 12.0 * std::sqrt(a + 1.0) + 64.0);

  for (std::size_t m = 0;; ++m) {
    const double pois = std::exp(log_pois);
    result += pois * absorbed;
    tail -= pois;
    // The neglected terms contribute at most `tail` (absorbed-probability
    // is <= 1), so `tail` alone bounds the truncation error.
    if (tail <= kTolerance || m >= max_terms) break;

    // One uniformized jump, ping-ponging between ws.v and ws.next.
    ws.next.assign(r, 0.0);
    for (std::size_t k = 0; k < r; ++k) {
      if (ws.v[k] == 0.0) continue;
      const double p_move = rates[k] / big_lambda;
      if (k + 1 < r) {
        ws.next[k + 1] += ws.v[k] * p_move;
      } else {
        absorbed += ws.v[k] * p_move;
      }
      ws.next[k] += ws.v[k] * (1.0 - p_move);
    }
    ws.v.swap(ws.next);

    log_pois += log_a - std::log(static_cast<double>(m + 1));
  }
  // The neglected tail has absorbed-probability <= 1, so `result` may be
  // short by at most `tail`. Add nothing; clamp for safety.
  DTN_CHECK_FINITE(result);
  return std::clamp(result, 0.0, 1.0);
}

double hypoexp_cdf_uniformization(const std::vector<double>& rates, double t) {
  HypoexpWorkspace ws;
  return hypoexp_cdf_uniformization(rates, t, ws);
}

double hypoexp_cdf(const std::vector<double>& rates, double t,
                   HypoexpWorkspace& ws) {
  validate_rates(rates);
  if (rates.empty()) return t >= 0.0 ? 1.0 : 0.0;
  if (t <= 0.0) return 0.0;
  double result = 0.0;
  if (rates.size() == 1) {
    DTN_COUNT(kHypoexpSingleEvals);
    result = std::clamp(stage_cdf(rates[0], t), 0.0, 1.0);
  } else {
    const double first = rates.front();
    if (std::all_of(rates.begin(), rates.end(),
                    [&](double x) { return x == first; })) {
      result = erlang_cdf(static_cast<int>(rates.size()), first, t);
    } else if (has_near_equal_rates(rates, ws)) {
      result = hypoexp_cdf_uniformization(rates, t, ws);
    } else {
      result = hypoexp_cdf_closed_form(rates, t);
    }
  }
  // Eq. 2: an opportunistic path weight is P(sum of exp stages <= T).
  DTN_CHECK_PROB(result);
  return result;
}

double hypoexp_cdf(const std::vector<double>& rates, double t) {
  HypoexpWorkspace ws;
  return hypoexp_cdf(rates, t, ws);
}

void HypoexpChainTable::prepare(std::size_t slots, std::size_t max_stages,
                                double t) {
  t_ = t;
  stride_ = max_stages;
  chains_.resize(slots);
  stages_.resize(slots * max_stages);
  single_evals_ = 0;
  closed_form_evals_ = 0;
}

void HypoexpChainTable::flush_counts() const {
  DTN_COUNT_N(kHypoexpSingleEvals, single_evals_);
  DTN_COUNT_N(kHypoexpClosedFormEvals, closed_form_evals_);
}

void HypoexpChainTable::set_empty(std::size_t s) { chains_[s] = Chain{}; }

void HypoexpChainTable::extend(std::size_t child, std::size_t parent,
                               double x, double one_minus_exp_x) {
  if (!(x > 0.0)) throw std::invalid_argument("hypoexp rates must be > 0");
  const Chain& from = chains_[parent];
  const std::size_t p = from.size;
  DTN_CHECK(p < stride_, "rate chain longer than the table's stride");
  DTN_CHECK(child != parent, "a chain cannot extend itself");
  const Stage* in = stages(parent);
  Stage* out = stages_.data() + child * stride_;
  Chain& to = chains_[child];
  to.size = p + 1;
  to.all_equal = from.all_equal && (p == 0 || x == in[0].rate);
  to.near_equal = from.near_equal || near_on_insert(in, p, x);
  std::copy(in, in + p, out);
  out[p] = {x, 1.0, one_minus_exp_x};
  // Partial products are read only by closed-form evals, which a chain
  // with a near pair (and every chain extended from it) never reaches.
  if (to.near_equal) return;
  double coeff = 1.0;
  for (std::size_t k = 0; k < p; ++k) {
    out[k].partial = in[k].partial * (x / (x - in[k].rate));
    coeff *= in[k].rate / (in[k].rate - x);
  }
  out[p].partial = coeff;
}

double hypoexp_mean(const std::vector<double>& rates) {
  validate_rates(rates);
  double mean = 0.0;
  for (double r : rates) mean += 1.0 / r;
  DTN_CHECK_FINITE(mean);
  return mean;
}

}  // namespace dtn
