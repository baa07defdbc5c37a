// Sparse NCL metric bench: the scale tier (DESIGN.md §14) against the
// exact production engine on the same community-structured scale graph.
//
// Stages:
//   ncl_metrics_full_fast    exact Eq. 3, one Dijkstra per node (kFast)
//   ncl_metrics_sparse       landmark-sampled + frontier-pruned (kSparse)
//   ncl_metrics_sparse_100k  sparse-only at 10^5 nodes (skipped by --fast)
//
// The acceptance contract for the sparse engine is a >= 5x build speedup
// over the exact engine on the >= 10^4-node preset; pass `--min-speedup X`
// to enforce that ratio as the exit status (the bench-smoke ctest entry
// and CI's bench-smoke job both do). The run also cross-checks the
// degenerate sparse configuration bit-for-bit against the exact metrics,
// prints the measured-error report of the benched configuration against
// the kReference oracle on a small graph, and records the process peak
// RSS (peak_rss_bytes counter) next to the O(n^2) table footprint the
// sparse tier avoids.
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "graph/ncl.h"
#include "graph/opportunistic_path.h"
#include "graph/sparse_metric.h"
#include "trace/synthetic.h"

using namespace dtn;

namespace {

volatile double g_sink = 0.0;

/// Peak resident set of this process in bytes (VmHWM from
/// /proc/self/status); 0 when the pseudo-file is unavailable.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb) * 1024;
}

}  // namespace

int main(int argc, char** argv) {
  const double min_speedup = bench::take_min_speedup(argc, argv);
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("sparse NCL metric engine");
  bench::JsonReport report("bench_sparse_metric", args);

  const NodeId nodes = args.fast ? 2000 : 10000;
  const ContactGraph graph = scale_contact_graph(scale_preset(nodes));
  const Time horizon = hours(1);
  // Small hop cap: it bounds the Dijkstra ball both engines explore, which
  // is what keeps the exact baseline tractable at 10^4 nodes. The sparse
  // speedup comes from running ~|L| balls instead of n, so the ratio is
  // insensitive to the cap.
  const int max_hops = 3;

  SparseMetricConfig sparse;
  sparse.landmark_count = 128;
  sparse.strategy = LandmarkStrategy::kUniform;
  sparse.weight_floor = 1e-3;
  sparse.seed = 7;

  std::printf("graph: %d nodes, %zu edges, horizon %.0fs, max_hops %d\n",
              graph.node_count(), graph.edge_count(), horizon, max_hops);
  std::printf("sparse: %d landmarks (%s), weight floor %g\n",
              sparse.landmark_count, landmark_strategy_name(sparse.strategy),
              sparse.weight_floor);

  report.stage(
      "ncl_metrics_full_fast",
      [&] {
        const std::vector<double> m =
            ncl_metrics(graph, horizon, max_hops, args.threads);
        g_sink = m.back();
      },
      "path_tables_built");

  report.stage(
      "ncl_metrics_sparse",
      [&] {
        const std::vector<double> m = sparse_ncl_metrics(
            graph, horizon, max_hops, args.threads, sparse);
        g_sink = m.back();
      },
      "path_tables_built");

  // Degenerate configuration = exact engine, bit for bit. This is the
  // correctness anchor the speedup gate stands on: the sparse path runs
  // the same fold, just over fewer roots.
  {
    const std::vector<double> exact =
        ncl_metrics(graph, horizon, max_hops, args.threads);
    SparseMetricConfig degenerate;  // all landmarks, zero floor
    const std::vector<double> degen = sparse_ncl_metrics(
        graph, horizon, max_hops, args.threads, degenerate);
    if (exact != degen) {
      std::fprintf(stderr,
                   "FAIL: degenerate sparse metrics differ from exact\n");
      return 1;
    }
    std::printf("degenerate sparse == exact: OK (%zu metrics)\n",
                exact.size());
  }

  // Measured error of the benched configuration against the kReference
  // oracle — on a small graph, since the oracle is O(n^2) allocating.
  {
    const ContactGraph small = scale_contact_graph(scale_preset(500));
    SparseMetricConfig probe = sparse;
    probe.landmark_count = 64;
    const MetricErrorReport err =
        measure_metric_error(small, horizon, max_hops, args.threads, probe, 8);
    std::printf(
        "error vs reference (500 nodes, %zu landmarks): max %.3g, "
        "mean %.3g, top-%d overlap %.2f\n",
        err.landmark_count, err.max_abs_error, err.mean_abs_error, err.k,
        err.topk_overlap);
  }

  // Scale headroom: sparse-only at 10^5 nodes. No exact baseline — that is
  // the point — so the stage is reported, not ratio-gated. Skipped by
  // --fast to keep the smoke run quick.
  if (!args.fast) {
    const NodeId big_nodes = 100000;
    const ContactGraph big = scale_contact_graph(scale_preset(big_nodes));
    SparseMetricConfig big_sparse = sparse;
    big_sparse.landmark_count = 256;
    std::printf("scale graph: %d nodes, %zu edges\n", big.node_count(),
                big.edge_count());
    report.stage(
        "ncl_metrics_sparse_100k",
        [&] {
          const std::vector<double> m = sparse_ncl_metrics(
              big, horizon, max_hops, args.threads, big_sparse);
          g_sink = m.back();
        },
        "path_tables_built", 1);
    const std::size_t avoided =
        static_cast<std::size_t>(big_nodes) *
        static_cast<std::size_t>(big_nodes) * sizeof(PathTable::Entry);
    std::printf(
        "avoided all-pairs table footprint at %d nodes: %.1f GiB\n",
        big_nodes, static_cast<double>(avoided) / (1024.0 * 1024.0 * 1024.0));
  }

  // Record the process high-water mark so the JSON artifact carries the
  // memory side of the contract (the 10^5-node build must fit in RAM that
  // an n^2 table set could not).
  const std::uint64_t peak = peak_rss_bytes();
  DTN_COUNT_N(kPeakRssBytes, peak);
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(peak) / (1024.0 * 1024.0));

  double full_ns = 0.0;
  double sparse_ns = 0.0;
  for (const auto& stage : report.stages()) {
    if (stage.name == "ncl_metrics_full_fast") {
      full_ns = static_cast<double>(stage.median_ns);
    }
    if (stage.name == "ncl_metrics_sparse") {
      sparse_ns = static_cast<double>(stage.median_ns);
    }
  }
  const double speedup = sparse_ns > 0.0 ? full_ns / sparse_ns : 0.0;

  std::printf("%-26s %6s %14s %14s %18s\n", "stage", "reps", "median_ms",
              "p90_ms", "ns_per_unit");
  for (const auto& s : report.stages()) {
    std::printf("%-26s %6d %14.3f %14.3f %18.2f\n", s.name.c_str(), s.reps,
                static_cast<double>(s.median_ns) / 1e6,
                static_cast<double>(s.p90_ns) / 1e6,
                static_cast<double>(s.median_ns) / s.work_units_per_rep);
  }
  std::printf("metric build speedup (full / sparse): %.2fx\n", speedup);

  if (!report.write_if_requested()) return 1;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: sparse speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
