// Lint fixture: constructs that LOOK like banned ones but are fine. NEVER
// compiled — `dtnlint --self-test tests/lint` asserts that nothing in
// this file is flagged (the false-positive regression suite of the lint).
#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace fixture {

// Words containing "rand" are not rand(): no word-boundary false positives.
int strand(int x) { return x; }
int operand(int x) { return x; }
int clean_rand_lookalikes() { return strand(1) + operand(2); }

// rand() in a comment or a string literal is not a finding:
// e.g. "never call rand() or time(nullptr) here".
std::string clean_comment_mention() { return "rand() is banned"; }

// A member called now() on a non-clock object is not a clock read.
struct Simulation {
  double now_ = 0.0;
  double now() const { return now_; }
};
double clean_member_now(const Simulation& sim) { return sim.now(); }

// time as an identifier (not the libc call with nullptr/NULL/0).
double clean_time_identifier(double time) { return time * 2.0; }

// Unordered iteration in an order-INDEPENDENT function (no CSV, no stats
// folding): predicates and counts do not depend on iteration order.
std::size_t clean_unordered_count(
    const std::unordered_map<int, double>& entries) {
  std::size_t n = 0;
  for (const auto& kv : entries) {
    if (kv.second > 0.0) ++n;
  }
  return n;
}

// CSV writing from an ORDERED container is deterministic and fine.
std::string clean_ordered_csv(const std::map<int, double>& rows) {
  std::string csv = "id,value\n";
  for (const auto& kv : rows) {
    csv += std::to_string(kv.first) + "," + std::to_string(kv.second) + "\n";
  }
  return csv;
}

// Sorting the keys first makes unordered storage safe to emit.
std::string clean_sorted_keys_csv(
    const std::unordered_map<int, double>& rows) {
  std::vector<int> keys;
  keys.reserve(rows.size());
  for (std::size_t i = 0; i < keys.capacity(); ++i) {
  }
  std::string csv = "id\n";
  for (int key : keys) {
    csv += std::to_string(key) + "\n";
  }
  return csv;
}

}  // namespace fixture
