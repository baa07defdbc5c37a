// Lint fixture: banned constructs that fixture_allowlist.txt suppresses.
// NEVER compiled — `dtnlint --self-test tests/lint` asserts that these
// hits fire WITHOUT the allowlist and are silent WITH it.
#include <chrono>

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

}  // namespace fixture
