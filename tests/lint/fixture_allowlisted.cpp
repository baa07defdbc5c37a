// Lint fixture: banned constructs that fixture_allowlist.txt suppresses.
// NEVER compiled — `dtnlint --self-test tests/lint` asserts that these
// hits fire WITHOUT the allowlist and are silent WITH it.
#include <chrono>
#include <vector>

namespace fixture {

// chrono-now, allowlisted: benchmark timing code is the legitimate use of
// clock reads (matches the ":elapsed_timer" substring entry).
double allowlisted_timing() {
  const auto elapsed_timer = std::chrono::steady_clock::now();
  (void)elapsed_timer;
  return 0.0;
}

// wall-clock-seed, allowlisted by file+rule without a substring.
long allowlisted_wall_clock() { return time(nullptr); }

// vector-in-loop, allowlisted: mirrors the legacy reference path engine,
// which keeps the old per-iteration allocation pattern on purpose (matches
// the ":legacy_chain" substring entry).
double allowlisted_reference_loop() {
  double total = 0.0;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> legacy_chain(3, 1.0);
    total += legacy_chain[0];
  }
  return total;
}

}  // namespace fixture
