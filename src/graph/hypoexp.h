// Hypoexponential distribution: the law of a sum of independent exponential
// random variables with (possibly distinct) rates. This is the paper's
// Eq. (1)-(2): the delivery delay along an r-hop opportunistic path is the
// sum of r exponential inter-contact times, and the *path weight* is the
// CDF of that sum evaluated at the time budget T.
//
// Numerical strategy (three cross-validated paths):
//  * r == 1 ............ plain exponential CDF;
//  * all rates equal ... Erlang closed form;
//  * distinct rates .... classic partial-fraction closed form
//                        P(S <= t) = sum_k C_k (1 - e^{-l_k t}),
//                        C_k = prod_{s != k} l_s / (l_s - l_k);
//  * near-equal rates .. the closed form suffers catastrophic cancellation
//                        (C_k blow up with alternating signs), so we fall
//                        back to uniformization of the underlying
//                        phase-type chain, which is unconditionally stable.
//
// Chains that grow one stage at a time, as the path engine's do, are
// evaluated through HypoexpChainTable: it keeps each chain's closed-form
// state and returns the dispatcher's exact bits without an exp() call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace dtn {

/// Reusable scratch buffers for the hypoexponential evaluators. The
/// dispatcher's near-equal-rates probe needs a sorted copy of the rates and
/// uniformization needs two per-phase probability buffers; with a workspace
/// those live in caller-owned vectors that amortize to zero heap traffic
/// across evaluations (the path engine's inner loop evaluates millions of
/// CDFs per all-pairs build). A workspace carries no results — only
/// capacity — so reusing one across calls, threads permitting, is purely a
/// performance knob: every overload below returns bit-identical values with
/// a fresh or a recycled workspace. One workspace per thread; sharing one
/// across concurrent calls is a data race.
struct HypoexpWorkspace {
  std::vector<double> sorted;  ///< near-equal-rates probe scratch
  std::vector<double> v;       ///< uniformization phase probabilities
  std::vector<double> next;    ///< uniformization ping-pong buffer
};

/// CDF of the sum of independent exponentials with the given rates,
/// evaluated at t. All rates must be > 0; throws std::invalid_argument
/// otherwise. An empty rate list is the sum of zero variables, i.e. the
/// constant 0: the CDF is 1 for t >= 0. Returns 0 for t <= 0 (r >= 1).
///
/// The result is clamped to [0, 1].
double hypoexp_cdf(const std::vector<double>& rates, double t);

/// Workspace form of hypoexp_cdf: identical dispatch, identical bits, zero
/// allocations once `ws` has warmed up. The allocating overload above is a
/// thin wrapper over this one with a fresh workspace.
double hypoexp_cdf(const std::vector<double>& rates, double t,
                   HypoexpWorkspace& ws);

/// Erlang CDF: sum of `shape` exponentials with common `rate`.
/// Exposed separately for testing; shape >= 1, rate > 0.
double erlang_cdf(int shape, double rate, double t);

/// Closed-form hypoexponential CDF for *strictly distinct* rates. Exposed
/// for testing; callers should normally use hypoexp_cdf, which dispatches.
double hypoexp_cdf_closed_form(const std::vector<double>& rates, double t);

/// Uniformization-based CDF; stable for any positive rates. Exposed for
/// testing. `tolerance` bounds the truncation error of the Poisson mixture.
double hypoexp_cdf_uniformization(const std::vector<double>& rates, double t,
                                  double tolerance = 1e-12);

/// Workspace form of hypoexp_cdf_uniformization: same truncation, same
/// bits, the per-jump ping-pong buffers live in `ws` instead of the heap.
double hypoexp_cdf_uniformization(const std::vector<double>& rates, double t,
                                  HypoexpWorkspace& ws,
                                  double tolerance = 1e-12);

/// Mean of the hypoexponential: sum of 1/rate.
double hypoexp_mean(const std::vector<double>& rates);

/// Closed-form states of rate chains that grow one stage at a time, all at
/// one time budget t. Slot s holds a chain λ_0..λ_{p-1}: extend derives the
/// state of chain(parent) + {x} from the parent's state in O(p), and
/// eval(s, x) returns hypoexp_cdf(chain(s) + {x}, t) with the dispatcher's
/// exact bits in O(p) (uniformization keeps its own cost). Neither calls
/// exp(): every stage's 1 - e^{-λ t} term is handed in once, when the stage
/// is appended. eval is inline, so the path kernel's relaxation loop makes
/// no call on the single-stage and closed-form tiers; the table counts
/// those two tiers' evals itself and flush_counts adds them to the
/// instrument registry once per table (the Erlang and uniformization
/// fallbacks count their own, as hypoexp_cdf's do).
///
/// Why the bits match. The dispatcher's closed form builds each stage's
/// coefficient C_k = prod_{s != k} λ_s / (λ_s - λ_k) by multiplying the
/// factors in index order, so appending x contributes exactly the final
/// factor x / (x - λ_k) to every earlier C_k, and the new stage's
/// coefficient is the index-order product prod_s λ_s / (λ_s - x). A state
/// stores the running products and the 1 - e^{-λ_k t} terms, so eval and
/// extend repeat the dispatcher's floating-point operations in its order.
/// The dispatch tier is decided as the dispatcher decides it: Erlang when
/// every rate equals x; uniformization when two rates of the sorted chain
/// are near-equal. Inserting x into a sorted chain only creates the pairs
/// it forms with its neighbours (the largest rate below x and the smallest
/// at or above it), tested with the dispatcher's predicates. A chain that
/// already holds a near pair keeps one for every x: x either leaves the
/// pair adjacent or lands inside it, and the upper sub-gap is no wider than
/// the original gap.
///
/// Not thread-safe; one table per thread (it lives in PathWorkspace).
class HypoexpChainTable {
 public:
  /// Room for `slots` chains of at most `max_stages` stages at budget t.
  /// Keeps its capacity across calls; a slot is undefined until set_empty
  /// or extend writes it. Starts the eval counts from zero.
  void prepare(std::size_t slots, std::size_t max_stages, double t);

  /// Slot `s` holds the empty chain.
  void set_empty(std::size_t s);

  /// Slot `child` holds chain(parent) + {x}; chain(parent) must have fewer
  /// than max_stages stages (DTN_CHECK). `one_minus_exp_x` must equal
  /// 1.0 - std::exp(-x * t) — the exact double, as an EdgeExpTable stores
  /// it — or the bit-identity promise is void. Throws
  /// std::invalid_argument unless x > 0.
  void extend(std::size_t child, std::size_t parent, double x,
              double one_minus_exp_x);

  /// hypoexp_cdf(chain(s) + {x}, t), bit for bit, with the same contract on
  /// `one_minus_exp_x`. `ws` is scratch for the uniformization fallback.
  /// Throws std::invalid_argument unless x > 0. Forced inline: GCC stops
  /// inlining it into the kernel's relaxation loop once a translation unit
  /// holds more than the kernel's call site.
  [[gnu::always_inline]] double eval(std::size_t s, double x,
                                     double one_minus_exp_x,
                                     HypoexpWorkspace& ws) const;

  /// Adds the single-stage and closed-form evals made since prepare() to
  /// hypoexp_single_evals and hypoexp_closed_form_evals. Call it once per
  /// prepare(), as the path kernel does once per table.
  void flush_counts() const;

 private:
  struct Stage {
    double rate;           ///< λ_k, in chain order
    double partial;        ///< C_k of the chain (closed-form chains only)
    double one_minus_exp;  ///< 1 - e^{-λ_k t}
  };
  struct Chain {
    std::size_t size = 0;
    bool all_equal = true;    ///< every rate equals stage 0's
    bool near_equal = false;  ///< two rates are near-equal or identical
  };

  const Stage* stages(std::size_t s) const {
    return stages_.data() + s * stride_;
  }

  /// True when inserting x into chain[0..p) creates a near-equal pair: the
  /// dispatcher's sorted-neighbour predicates, applied to x's neighbours in
  /// sorted order. Only meaningful for a chain without a near pair of its
  /// own.
  static bool near_on_insert(const Stage* chain, std::size_t p, double x);

  double t_ = 0.0;
  std::size_t stride_ = 0;
  std::vector<Chain> chains_;
  std::vector<Stage> stages_;  ///< slot s owns [s * stride_, (s+1) * stride_)
  mutable std::vector<double> rates_;  ///< eval's uniformization input
  mutable std::uint64_t single_evals_ = 0;       ///< since prepare()
  mutable std::uint64_t closed_form_evals_ = 0;  ///< since prepare()
};

inline bool HypoexpChainTable::near_on_insert(const Stage* chain,
                                              std::size_t p, double x) {
  bool has_below = false;
  bool has_above = false;
  double below = 0.0;
  double above = 0.0;
  for (std::size_t k = 0; k < p; ++k) {
    const double rate = chain[k].rate;
    if (rate < x) {
      if (!has_below || rate > below) below = rate;
      has_below = true;
    } else {
      if (!has_above || rate < above) above = rate;
      has_above = true;
    }
  }
  return (has_below && (x - below) <= 1e-6 * x) ||
         (has_above && (above - x) <= 1e-6 * above);
}

inline double HypoexpChainTable::eval(std::size_t s, double x,
                                      double one_minus_exp_x,
                                      HypoexpWorkspace& ws) const {
  if (!(x > 0.0)) throw std::invalid_argument("hypoexp rates must be > 0");
  if (t_ <= 0.0) return 0.0;
  const Chain& prefix = chains_[s];
  const std::size_t p = prefix.size;
  const Stage* in = stages(s);

  double result = 0.0;
  if (p == 0) {
    ++single_evals_;
    result = std::clamp(one_minus_exp_x, 0.0, 1.0);
  } else if (prefix.all_equal && x == in[0].rate) {
    result = erlang_cdf(static_cast<int>(p + 1), x, t_);
  } else if (prefix.near_equal || near_on_insert(in, p, x)) {
    rates_.resize(p + 1);
    for (std::size_t k = 0; k < p; ++k) rates_[k] = in[k].rate;
    rates_[p] = x;
    result = hypoexp_cdf_uniformization(rates_, t_, ws);
  } else {
    ++closed_form_evals_;
    // The dispatcher's closed form over chain(s) + {x}, term by term: for
    // k < p the appended rate's factor is the last one multiplied into C_k.
    double acc = 0.0;
    double coeff = 1.0;
    for (std::size_t k = 0; k < p; ++k) {
      acc += (in[k].partial * (x / (x - in[k].rate))) * in[k].one_minus_exp;
      coeff *= in[k].rate / (in[k].rate - x);
    }
    acc += coeff * one_minus_exp_x;
    DTN_CHECK_FINITE(acc);
    result = std::clamp(acc, 0.0, 1.0);
  }
  DTN_CHECK_PROB(result);
  return result;
}

}  // namespace dtn
