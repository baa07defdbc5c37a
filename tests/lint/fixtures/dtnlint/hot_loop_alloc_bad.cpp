// dtnlint fixture: seeded hot-loop-alloc violations. NEVER compiled —
// the --self-test asserts every violation below is caught, and that no
// OTHER rule fires in this file.
#include <deque>
#include <map>
#include <vector>

namespace fixture {

// Allocating container constructed fresh every iteration.
int bad_map_in_loop(int n) {
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    std::map<int, int> ranks;  // seeded violation
    ranks[i] = i;
    acc += static_cast<int>(ranks.size());
  }
  return acc;
}

// The same hazard one scope down: a branch body inside the loop.
int bad_deque_in_nested_branch(int n, bool flag) {
  int acc = 0;
  while (acc < n) {
    if (flag) {
      std::deque<int> backlog;  // seeded violation
      backlog.push_back(acc);
      acc += static_cast<int>(backlog.size());
    } else {
      ++acc;
    }
  }
  return acc;
}

// A per-iteration vector, in a for body and in a while body.
double bad_vector_in_loops(int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    std::vector<double> rates(4, 1.0);  // seeded violation
    total += rates[0];
  }
  int guard = 0;
  while (guard < 2) {
    std::vector<int> scratch;  // seeded violation
    scratch.push_back(guard++);
    total += scratch.back();
  }
  return total;
}

// Raw `new` in a loop body is the container hazard without the container.
int bad_raw_new_in_loop(int n) {
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    int* scratch = new int[4];  // seeded violation
    scratch[0] = i;
    acc += scratch[0];
    delete[] scratch;
  }
  return acc;
}

}  // namespace fixture
