// Invariant contracts for the paper's numerically delicate quantities.
//
// The reproduction's core claims (Eqs. 1-7 of Gao et al.) live in code where
// a silent NaN, a probability outside [0,1] or a buffer-capacity overrun
// corrupts results without failing any test. These macros compile the
// paper's invariants into every build type (including RelWithDebInfo and
// Release, where plain assert() is stripped); a violation aborts immediately
// with a message naming the invariant and its source location.
//
//   DTN_CHECK(cond)              — generic invariant
//   DTN_CHECK(cond, "message")   — generic invariant with a description
//   DTN_CHECK_PROB(x)            — x is a probability: finite and in [0, 1]
//   DTN_CHECK_FINITE(x)          — x is finite (no NaN / infinity)
//   DTN_CHECK_LE(a, b)           — a <= b, both values printed on failure
//   DTN_CHECK_GE(a, b)           — a >= b, both values printed on failure
//
// All macros are statements (not expressions) and evaluate each argument
// exactly once.
#pragma once

#include <cmath>
#include <cstdint>

namespace dtn::internal {

/// Prints "DTN_CHECK failed at <file>:<line>: <invariant>[: <details>]" to
/// stderr and aborts. Never returns; never throws (a broken invariant means
/// the simulation state is already untrustworthy, so unwinding past it would
/// only let corrupted results escape).
[[noreturn]] void check_failed(const char* file, int line,
                               const char* invariant, const char* details);

/// check_failed with "value = <v>" detail formatting.
[[noreturn]] void check_failed_value(const char* file, int line,
                                     const char* invariant, double value);

/// check_failed with "<a> vs <b>" detail formatting for binary comparisons.
[[noreturn]] void check_failed_cmp(const char* file, int line,
                                   const char* invariant, double lhs,
                                   double rhs);

/// True when x is finite and 0 <= x <= 1; false for NaN. Inline: the path
/// kernel tests every relaxation's candidate with it.
inline bool is_probability(double x) {
  return std::isfinite(x) && x >= 0.0 && x <= 1.0;
}

/// True when x is finite (no NaN / infinity).
inline bool is_finite(double x) { return std::isfinite(x); }

}  // namespace dtn::internal

#define DTN_CHECK_1(cond)                                                   \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::dtn::internal::check_failed(__FILE__, __LINE__, #cond, nullptr);    \
    }                                                                       \
  } while (false)

#define DTN_CHECK_2(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::dtn::internal::check_failed(__FILE__, __LINE__, #cond, (msg));      \
    }                                                                       \
  } while (false)

#define DTN_CHECK_PROB(x)                                                   \
  do {                                                                      \
    const double dtn_check_v_ = static_cast<double>(x);                     \
    if (!::dtn::internal::is_probability(dtn_check_v_)) {                   \
      ::dtn::internal::check_failed_value(                                  \
          __FILE__, __LINE__, #x " is a probability in [0, 1]",             \
          dtn_check_v_);                                                    \
    }                                                                       \
  } while (false)

#define DTN_CHECK_FINITE(x)                                                 \
  do {                                                                      \
    const double dtn_check_v_ = static_cast<double>(x);                     \
    if (!::dtn::internal::is_finite(dtn_check_v_)) {                        \
      ::dtn::internal::check_failed_value(__FILE__, __LINE__,               \
                                          #x " is finite", dtn_check_v_);   \
    }                                                                       \
  } while (false)

#define DTN_CHECK_LE(a, b)                                                  \
  do {                                                                      \
    const auto dtn_check_a_ = (a);                                          \
    const auto dtn_check_b_ = (b);                                          \
    if (!(dtn_check_a_ <= dtn_check_b_)) {                                  \
      ::dtn::internal::check_failed_cmp(                                    \
          __FILE__, __LINE__, #a " <= " #b,                                 \
          static_cast<double>(dtn_check_a_),                                \
          static_cast<double>(dtn_check_b_));                               \
    }                                                                       \
  } while (false)

#define DTN_CHECK_GE(a, b)                                                  \
  do {                                                                      \
    const auto dtn_check_a_ = (a);                                          \
    const auto dtn_check_b_ = (b);                                          \
    if (!(dtn_check_a_ >= dtn_check_b_)) {                                  \
      ::dtn::internal::check_failed_cmp(                                    \
          __FILE__, __LINE__, #a " >= " #b,                                 \
          static_cast<double>(dtn_check_a_),                                \
          static_cast<double>(dtn_check_b_));                               \
    }                                                                       \
  } while (false)

// DTN_CHECK(cond) / DTN_CHECK(cond, msg) dispatch.
#define DTN_CHECK_GET_3RD(a, b, c, ...) c
#define DTN_CHECK(...) \
  DTN_CHECK_GET_3RD(__VA_ARGS__, DTN_CHECK_2, DTN_CHECK_1)(__VA_ARGS__)
