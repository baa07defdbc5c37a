// Lint fixture: every banned construct in one file. NEVER compiled — this
// file exists so `dtnlint --self-test tests/lint` can assert that each
// legacy rule fires. Each block below must trip exactly the rule named
// above it.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace fixture {

// libc-rand: the hidden-global libc generator.
int banned_libc_rand() {
  srand(42);
  return rand() % 7 + std::rand() % 3;
}

// random-device: hardware entropy, different every run.
std::uint64_t banned_random_device() {
  std::random_device rd;
  return rd();
}

// wall-clock-seed: seeding from the wall clock.
long banned_wall_clock_seed() { return time(nullptr) + time(NULL); }

// chrono-now: clock reads inside simulation code.
double banned_chrono_now() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = std::chrono::system_clock::now();
  (void)t0;
  (void)t1;
  return 0.0;
}

// fs-mtime: file timestamps leaking into behavior.
long banned_fs_mtime() {
  const auto stamp = std::filesystem::last_write_time("trace.csv");
  return stamp.time_since_epoch().count();
}

// unordered-fold: hash-order iteration inside a CSV-writing function.
std::string banned_unordered_fold() {
  std::unordered_map<int, double> totals;
  std::string csv = "id,total\n";
  for (const auto& kv : totals) {
    csv += std::to_string(kv.first) + "," + std::to_string(kv.second) + "\n";
  }
  return csv;
}

// vector-in-loop: a per-iteration vector in (what would be) a hot loop.
double banned_vector_in_loop() {
  double total = 0.0;
  for (int i = 0; i < 8; ++i) {
    std::vector<double> rates(4, 1.0);
    total += rates[0];
  }
  int guard = 0;
  while (guard < 2) {
    std::vector<int> scratch;
    scratch.push_back(guard++);
    total += scratch.back();
  }
  return total;
}

}  // namespace fixture
