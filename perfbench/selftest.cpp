// Tests of the benchmark's own logic: the percentile reporting rule, the
// open-loop generator's due-time accounting, the tracer's self-time
// arithmetic and its check that layer self-times add up to the wall time. test_run.py builds and runs it; it exits non-zero on any
// failed expectation.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "latency.h"
#include "tracer.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest.cpp:%d: expected %s\n", line, what);
  ++g_failures;
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void percentile_rule() {
  // About 670 repair batches per daemon replay: p98 leaves 13 samples
  // beyond it, p99 only 6, so p98 is the highest tail it may report.
  EXPECT(nearest_rank(670, 0.98) == 657);
  EXPECT(samples_beyond(670, 0.98) == 13);
  EXPECT(tail_reportable(670, 0.98));
  EXPECT(!tail_reportable(670, 0.99));
  EXPECT(highest_reportable(670, {0.5, 0.9, 0.95, 0.98, 0.99, 0.999}) ==
         0.98);
  // Exactly ten beyond is enough, nine is not; 0.99 * 1000 must not round
  // up to rank 991.
  EXPECT(nearest_rank(1000, 0.99) == 990);
  EXPECT(tail_reportable(1000, 0.99));
  EXPECT(!tail_reportable(999, 0.99));
  EXPECT(highest_reportable(5, {0.5, 0.99}) == 0.0);
  EXPECT(samples_beyond(0, 0.5) == 0);

  std::vector<double> samples;
  for (int v = 100; v >= 1; --v) samples.push_back(v);
  EXPECT(quantile(samples, 0.5) == 50.0);
  EXPECT(quantile(samples, 0.99) == 99.0);
  EXPECT(quantile(samples, 1.0) == 100.0);
  EXPECT(quantile({}, 0.5) == 0.0);
  EXPECT(median({3.0, 1.0, 2.0, 10.0}) == 2.5);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
}

void open_loop_accounting() {
  const OpenLoopSchedule schedule{1000, 500.0};
  EXPECT(schedule.due_ns(0) == 1000);
  EXPECT(schedule.due_ns(3) == 2500);

  // Request 0 stalls for 2000 ns. Request 1 is due at 1500 but can only be
  // sent when request 0 returns at 3000, and then takes 100 ns itself.
  const OpenLoopTiming stalled{schedule.due_ns(0), 1000, 3000};
  const OpenLoopTiming queued{schedule.due_ns(1), 3000, 3100};
  EXPECT(stalled.latency_ns() == 2000);
  EXPECT(stalled.late_ns() == 0);
  // Timed from when it was due, the queued request is charged the 1500 ns
  // it waited behind the stall, not only its own 100 ns of service.
  EXPECT(queued.latency_ns() == 1600);
  EXPECT(queued.done_ns - queued.sent_ns == 100);
  EXPECT(queued.late_ns() == 1500);

  // Lateness is never negative.
  const OpenLoopTiming early{2000, 1990, 2100};
  EXPECT(early.late_ns() == 0);
  EXPECT(early.latency_ns() == 100);
}

const SelfTime* find_row(const std::vector<SelfTime>& rows,
                         const std::string& name) {
  for (const SelfTime& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

void tracer_self_times() {
  Tracer tracer;
  const int root = tracer.record("root", -1, 0, 1000);
  tracer.record("a", root, 100, 400);
  const int b = tracer.record("b", root, 500, 900);
  tracer.aggregate(b, "hook", 2, 150);
  tracer.aggregate(b, "hook", 1, 150);
  // A reader thread's calls ran beside the tree: reported, not subtracted.
  tracer.aggregate(root, "reader", 50, 5000, 1);

  const std::vector<SelfTime> rows = tracer.self_times();
  const SelfTime* r = find_row(rows, "root");
  EXPECT(r != nullptr && r->self_ns == 300 && r->total_ns == 1000);
  r = find_row(rows, "a");
  EXPECT(r != nullptr && r->self_ns == 300);
  r = find_row(rows, "b");
  EXPECT(r != nullptr && r->total_ns == 400 && r->self_ns == 100);
  r = find_row(rows, "hook");
  EXPECT(r != nullptr && r->calls == 3 && r->self_ns == 300);
  r = find_row(rows, "reader");
  EXPECT(r != nullptr && r->track == 1 && r->total_ns == 5000);
  // a + b + hook self times: the root's 1000 ns minus its 300 ns of gaps.
  EXPECT(tracer.attributed_ns() == 700);
  EXPECT(tracer.duration_ns(root) == 1000);

  const std::string json = tracer.chrome_json("w");
  EXPECT(json.find("\"ph\":\"X\"") != std::string::npos);
  EXPECT(json.find("\"parent\":0,\"workload_span\":0") != std::string::npos);
  EXPECT(json.find("\"name\":\"root\",\"cat\":\"group\"") !=
         std::string::npos);
  EXPECT(json.find("\"name\":\"a\",\"cat\":\"layer\"") != std::string::npos);
  EXPECT(json.find("\"name\":\"hook\",\"track\":0,\"calls\":3") !=
         std::string::npos);

  bool threw = false;
  try {
    tracer.record("orphan", 7, 0, 1);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
}

/// A root holding one group span (a scheme's cell) whose interval [0, 1000)
/// holds a trace load on [0, 400) and a run on [run_start, 1000).
Tracer cell_with_run_from(std::int64_t run_start, SpanKind cell_kind) {
  Tracer tracer;
  const int root = tracer.record("root", -1, 0, 1000);
  const int cell = tracer.record("cell", root, 0, 1000, cell_kind);
  tracer.record("load", cell, 0, 400);
  tracer.record("run", cell, run_start, 1000);
  return tracer;
}

void attribution_check() {
  const Tracer covered = cell_with_run_from(400, SpanKind::kGroup);
  EXPECT(covered.attributed_ns() == 1000);
  EXPECT(covered.self_times_add_up(0.05));

  // An untimed call of 200 ns between the two layers is glue: the layers
  // account for 80% of the wall time and the check fails.
  const Tracer gap = cell_with_run_from(600, SpanKind::kGroup);
  EXPECT(gap.attributed_ns() == 800);
  EXPECT(!gap.self_times_add_up(0.05));
  EXPECT(gap.self_times_add_up(0.2));

  // Counted as a layer, the cell's own self time would hide that gap.
  const Tracer hidden = cell_with_run_from(600, SpanKind::kLayer);
  EXPECT(hidden.attributed_ns() == 1000);

  EXPECT(!Tracer().self_times_add_up(0.05));
}

}  // namespace

int main() {
  percentile_rule();
  open_loop_accounting();
  tracer_self_times();
  attribution_check();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest OK\n");
  return 0;
}
