// Simulator-engine bench: the NCL caching scheme's contact hot loop end to
// end, under both scheme engines — the SoA production implementation
// (SimEngine::kFast: bundle queues compacted in place, byte accounts,
// reusable contact workspaces) versus the frozen per-object reference
// (SimEngine::kReference). Both runs share one trace, one warm-up graph,
// one NCL selection and one workload, so the measured difference is the
// scheme hot loop alone; the work unit is contacts processed.
//
// The acceptance contract for the rewrite is that the fast engine clears
// at least 2x the reference's contacts-per-second on the same host; pass
// `--min-speedup X` to enforce that ratio as the exit status (CI's
// bench-smoke job, the nightly run and tools/verify.sh --stage bench do). The
// `--json` artifact is additionally gated by tools/bench_compare.py on ns
// per contact against bench/baselines/bench_engine.json.
//
// The workload is deliberately entry-rich (small data items against large
// buffers, several NCLs, long lifetimes): caches fill with many live
// entries, which is where the legacy path's per-contact work — kept-vector
// rebuilds, any_of entry scans, per-central pool maps — actually lives.
// Maintenance is configured out of the measured window so path-table
// rebuilds (bench_paths' job) do not dilute the scheme ratio.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "experiment/experiment.h"
#include "graph/ncl.h"
#include "sim/engine.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

using namespace dtn;

namespace {

volatile double g_sink = 0.0;

}  // namespace

int main(int argc, char** argv) {
  const double min_speedup = bench::take_min_speedup(argc, argv);
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("simulator engine");
  bench::JsonReport report("bench_engine", args);

  const NodeId nodes = args.fast ? 30 : 41;
  const double trace_days = args.days > 0 ? args.days : 6.0;

  SyntheticTraceConfig tc;
  tc.node_count = nodes;
  tc.duration = days(trace_days);
  tc.target_total_contacts =
      static_cast<double>(nodes) * (args.fast ? 1000.0 : 3600.0);
  tc.seed = 23;
  const ContactTrace trace = generate_trace(tc);

  ExperimentConfig config;
  config.avg_lifetime = hours(18);
  config.avg_data_size = megabits(4);
  config.generation_prob = 0.8;
  config.buffer_min = megabits(300);
  config.buffer_max = megabits(600);
  config.ncl_count = 4;
  config.auto_horizon = false;
  config.sim.path_horizon = hours(1);
  config.sim.maintenance_interval = days(trace_days);
  config.sim.threads = args.threads;
  config.seed = 2026;

  // Shared setup, computed once: both engines simulate the exact same cell.
  const WarmupContext warmup = make_warmup_context(trace, config);
  const NclSelection ncls =
      select_ncls(warmup.graph, warmup.horizon, config.ncl_count,
                  config.sim.max_hops, config.sim.threads);

  const std::uint64_t rep_seed = config.seed + 0x9E3779B9ULL;
  WorkloadConfig wc;
  wc.start = trace.start_time() + trace.duration() / 2.0;
  wc.end = trace.end_time();
  wc.avg_lifetime = config.avg_lifetime;
  wc.generation_prob = config.generation_prob;
  wc.avg_size = config.avg_data_size;
  wc.zipf_exponent = config.zipf_exponent;
  wc.query_constraint_factor = config.query_constraint_factor;
  wc.seed = rep_seed;
  const Workload workload = generate_workload(wc, trace.node_count());

  const std::vector<Bytes> buffers =
      draw_buffer_capacities(config, trace.node_count(), rep_seed ^ 0xB0FFu);

  SimConfig sc = config.sim;
  sc.path_horizon = warmup.horizon;
  sc.seed = rep_seed ^ 0x51Au;

  std::printf("trace: %d nodes, %zu contacts, %d NCLs, %zu workload events\n",
              trace.node_count(), trace.size(), config.ncl_count,
              workload.events().size());

  std::size_t contacts = 0;
  auto run_engine = [&](SimEngine engine) {
    config.sim.sim_engine = engine;
    std::unique_ptr<Scheme> scheme =
        make_scheme(SchemeKind::kNclCache, config, ncls, buffers);
    SimConfig run_config = sc;
    run_config.sim_engine = engine;
    const RunResult run = run_simulation(trace, workload, *scheme, run_config);
    contacts = run.contacts_processed;
    g_sink = run.metrics.success_ratio();
  };

  report.stage(
      "engine_reference", [&] { run_engine(SimEngine::kReference); },
      "contacts_processed");
  const double success_reference = g_sink;

  report.stage(
      "engine_fast", [&] { run_engine(SimEngine::kFast); },
      "contacts_processed");
  const double success_fast = g_sink;

  double reference_ns = 0.0;
  double fast_ns = 0.0;
  for (const auto& stage : report.stages()) {
    if (stage.name == "engine_reference") {
      reference_ns = static_cast<double>(stage.median_ns);
    }
    if (stage.name == "engine_fast") {
      fast_ns = static_cast<double>(stage.median_ns);
    }
  }
  const double speedup = fast_ns > 0.0 ? reference_ns / fast_ns : 0.0;

  std::printf("%-22s %6s %14s %14s %18s\n", "stage", "reps", "median_ms",
              "p90_ms", "ns_per_contact");
  for (const auto& s : report.stages()) {
    std::printf("%-22s %6d %14.3f %14.3f %18.2f\n", s.name.c_str(), s.reps,
                static_cast<double>(s.median_ns) / 1e6,
                static_cast<double>(s.p90_ns) / 1e6,
                static_cast<double>(s.median_ns) / s.work_units_per_rep);
  }
  std::printf("contacts per run: %zu\n", contacts);
  std::printf("engine speedup (reference / fast): %.2fx\n", speedup);

  // Bit-identity is pinned exhaustively by tests/engine_golden_test.cpp;
  // this cheap cross-check just refuses to report a speedup for runs that
  // silently diverged.
  if (success_reference != success_fast) {
    std::fprintf(stderr, "FAIL: engines diverged (success %.17g vs %.17g)\n",
                 success_reference, success_fast);
    return 1;
  }

  if (!report.write_if_requested()) return 1;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: engine speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
