// Shared helpers for the figure/table benches: command-line scaling flags
// so the suite finishes quickly by default yet can be run at paper scale,
// plus the --json flag selecting machine-readable output (bench_json.h).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tools/parse_number.h"

namespace dtn::bench {

/// parse_number<T> (tools/parse_number.h's whole-token rule), then exits 2
/// with a message unless the value is finite and at least `min`.
template <typename T>
T parse_at_least(const std::string& flag, const char* text, T min) {
  const T value = parse_number<T>(flag, text);
  if (!std::isfinite(static_cast<double>(value)) || value < min) {
    std::fprintf(stderr, "%s: expected a finite number >= %g, got '%s'\n",
                 flag.c_str(), static_cast<double>(min), text);
    std::exit(2);
  }
  return value;
}

/// Parses "--reps N" and "--days D" style flags; unknown flags abort with
/// a usage message so typos do not silently run the default. A malformed
/// or out-of-range number (reps < 1, threads < 0, days negative or not
/// finite) exits 2 with a message.
struct BenchArgs {
  int reps = 2;
  double days = 0.0;  ///< 0 = bench-specific default
  bool fast = false;
  int threads = 0;    ///< 0 = hardware_concurrency, 1 = serial baseline
  std::string json;   ///< --json PATH: write a machine-readable record

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--reps" && i + 1 < argc) {
        args.reps = parse_at_least(flag, argv[++i], 1);
      } else if (flag == "--days" && i + 1 < argc) {
        args.days = parse_at_least(flag, argv[++i], 0.0);
      } else if (flag == "--threads" && i + 1 < argc) {
        args.threads = parse_at_least(flag, argv[++i], 0);
      } else if (flag == "--json" && i + 1 < argc) {
        args.json = argv[++i];
      } else if (flag == "--fast") {
        args.fast = true;
      } else {
        std::fprintf(
            stderr,
            "usage: %s [--reps N] [--days D] [--threads T] [--fast] "
            "[--json PATH]\n",
            argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

/// Removes "--min-speedup X" from argv, since BenchArgs::parse rejects
/// flags it does not know, and returns X: the ratio floor a gated bench
/// enforces as its exit status (0, the default, turns the gate off). X must
/// be a whole finite number >= 0 (tools/parse_number.h's rule); a missing
/// or malformed value exits 2.
inline double take_min_speedup(int& argc, char** argv) {
  const std::string flag = "--min-speedup";
  double floor = 0.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != flag) {
      argv[kept++] = argv[i];
      continue;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "%s: missing value\n", flag.c_str());
      std::exit(2);
    }
    floor = parse_at_least(flag, argv[++i], 0.0);
  }
  argc = kept;
  return floor;
}

inline void print_header(const std::string& title) {
  std::printf("==== %s ====\n", title.c_str());
}

}  // namespace dtn::bench
