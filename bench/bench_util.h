// Shared helpers for the figure/table benches: command-line scaling flags
// so the suite finishes quickly by default yet can be run at paper scale,
// plus the --json flag selecting machine-readable output (bench_json.h).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/parse_number.h"

namespace dtn::bench {

/// Parses "--reps N" and "--days D" style flags; unknown flags abort with
/// a usage message so typos do not silently run the default.
struct BenchArgs {
  int reps = 2;
  double days = 0.0;  ///< 0 = bench-specific default
  bool fast = false;
  int threads = 0;    ///< 0 = hardware_concurrency, 1 = serial baseline
  std::string json;   ///< --json PATH: write a machine-readable record

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
        args.reps = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
        args.days = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        args.threads = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json = argv[++i];
      } else if (std::strcmp(argv[i], "--fast") == 0) {
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
    floor = parse_number<double>(flag, argv[++i]);
    if (!std::isfinite(floor) || floor < 0.0) {
      std::fprintf(stderr, "%s: expected a finite number >= 0, got '%s'\n",
                   flag.c_str(), argv[i]);
      std::exit(2);
    }
  }
  argc = kept;
  return floor;
}

inline void print_header(const std::string& title) {
  std::printf("==== %s ====\n", title.c_str());
}

}  // namespace dtn::bench
