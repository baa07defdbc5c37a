// Lint fixture: every banned construct below appears ONLY inside comments,
// string/char literals, raw strings, or preprocessor lines. NEVER compiled.
// `dtnlint --self-test tests/lint` asserts that it reports nothing here;
// the retired line-regex implementation false-positived on several of these
// (most famously banned tokens quoted in comments and strings — which is
// exactly how this tree's own documentation talks about the rules).
#include <string>

namespace fixture {

// Line comments quoting the banned constructs:
// rand(); srand(7); std::random_device rd; time(nullptr);
// steady_clock::now(); last_write_time(p);

/* A block comment with the scope-based rules' triggers:
   while (spin) { std::vector<double> per_iteration; }
   for (const auto& kv : sizes_) { csv.add_cell(kv.second); }
   where sizes_ is a std::unordered_map<int, double>.
*/

const char* banned_in_strings() {
  return "rand() srand(1) std::random_device time(nullptr) "
         "system_clock::now() last_write_time(path)";
}

const char* banned_in_raw_string() {
  return R"lint(
    for (const auto& kv : sizes_) { csv.add_row(kv.second); }
    while (spin) { std::vector<int> per_iteration; }
    time(nullptr); std::rand(); std::random_device entropy;
  )lint";
}

// A char literal holding a lone quote must not unbalance the string
// scanner: the rand() in this comment is still a comment afterwards.
char banned_in_char_literal() { return '"'; }

// Preprocessor lines are invisible to the lint, including continuations:
#define FIXTURE_NOT_A_SEED(x) \
  ((x) + 0 /* not time(nullptr), not rand() */)

int fixture_entry() { return FIXTURE_NOT_A_SEED(1); }

}  // namespace fixture
