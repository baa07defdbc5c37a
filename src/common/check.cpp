#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace dtn::internal {
namespace {

[[noreturn]] void fail(const char* file, int line, const char* invariant,
                       const char* details_fmt, double v1, double v2,
                       int value_count) {
  std::fflush(stdout);
  std::fprintf(stderr, "DTN_CHECK failed at %s:%d: %s", file, line, invariant);
  if (value_count == 1) {
    std::fprintf(stderr, details_fmt, v1);
  } else if (value_count == 2) {
    std::fprintf(stderr, details_fmt, v1, v2);
  } else if (details_fmt != nullptr) {
    std::fprintf(stderr, ": %s", details_fmt);
  }
  std::fprintf(stderr, "\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void check_failed(const char* file, int line, const char* invariant,
                  const char* details) {
  fail(file, line, invariant, details, 0.0, 0.0, 0);
}

void check_failed_value(const char* file, int line, const char* invariant,
                        double value) {
  fail(file, line, invariant, ": value = %.17g", value, 0.0, 1);
}

void check_failed_cmp(const char* file, int line, const char* invariant,
                      double lhs, double rhs) {
  fail(file, line, invariant, ": %.17g vs %.17g", lhs, rhs, 2);
}

}  // namespace dtn::internal
