// Path-engine bench: the Eq. 1-3 machinery end to end. Cold all-pairs
// builds two ways (the zero-allocation production construction vs the
// legacy allocating reference, compute_opportunistic_paths_reference run
// per root on the same pool), then the weight_at re-evaluation sweep.
//
// The acceptance contract for the engine rewrite is that the fast build is
// at least 3x the reference on the same host; pass `--min-speedup X` to
// enforce that ratio as the exit status (CI's bench-smoke job, the nightly
// run and tools/verify.sh --stage bench do). Either way the run refuses,
// with exit 1, when the two constructions' tables differ. The `--json`
// artifact is additionally gated by tools/bench_compare.py on ns per path
// table / per parent-chain walk against bench/baselines/bench_paths.json.
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/all_pairs.h"
#include "graph/contact_graph.h"
#include "graph/opportunistic_path.h"
#include "trace/synthetic.h"

using namespace dtn;

namespace {

// Contact dynamics shaped like the paper's Infocom trace: a synthetic
// trace at that scale, reduced to the rate graph the path engine consumes.
ContactGraph bench_graph(NodeId nodes, double trace_days) {
  SyntheticTraceConfig config;
  config.node_count = nodes;
  config.duration = days(trace_days);
  config.target_total_contacts = static_cast<std::size_t>(nodes) * 300;
  config.seed = 41;
  return build_contact_graph(generate_trace(config));
}

volatile double g_sink = 0.0;

/// Every root's table by the reference construction, on the shared pool.
std::vector<PathTable> reference_tables(const ContactGraph& graph,
                                        Time horizon, int max_hops,
                                        int threads) {
  return parallel_map(threads, static_cast<std::size_t>(graph.node_count()),
                      [&](std::size_t root) {
                        return compute_opportunistic_paths_reference(
                            graph, static_cast<NodeId>(root), horizon,
                            max_hops);
                      });
}

}  // namespace

int main(int argc, char** argv) {
  const double min_speedup = bench::take_min_speedup(argc, argv);
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("path engine");
  bench::JsonReport report("bench_paths", args);

  const NodeId nodes = args.fast ? 48 : 97;
  const double trace_days = args.days > 0 ? args.days : 3.0;
  const ContactGraph graph = bench_graph(nodes, trace_days);
  const Time horizon = hours(1);
  const int max_hops = 8;
  std::printf("graph: %d nodes, horizon %.0fs, max_hops %d\n",
              graph.node_count(), horizon, max_hops);

  report.stage(
      "all_pairs_reference",
      [&] {
        const std::vector<PathTable> tables =
            reference_tables(graph, horizon, max_hops, args.threads);
        g_sink = tables.back().weight(0);
      },
      "path_tables_built");

  report.stage(
      "all_pairs_fast",
      [&] {
        const AllPairsPaths paths(graph, horizon, max_hops, args.threads);
        g_sink = paths.weight(0, graph.node_count() - 1);
      },
      "path_tables_built");

  // One table set for the re-evaluation sweep (serial for stable timings).
  const AllPairsPaths paths(graph, horizon, max_hops, 1);
  const std::vector<Time> budgets{minutes(10), minutes(30), hours(1)};

  report.stage(
      "weight_at_scalar_sweep",
      [&] {
        double acc = 0.0;
        for (const Time budget : budgets) {
          for (NodeId to = 0; to < graph.node_count(); ++to) {
            for (NodeId from = 0; from < graph.node_count(); ++from) {
              acc += paths.weight_at(from, to, budget);
            }
          }
        }
        g_sink = acc;
      },
      "parent_chain_walks");

  double reference_ns = 0.0;
  double fast_ns = 0.0;
  for (const auto& stage : report.stages()) {
    if (stage.name == "all_pairs_reference") {
      reference_ns = static_cast<double>(stage.median_ns);
    }
    if (stage.name == "all_pairs_fast") {
      fast_ns = static_cast<double>(stage.median_ns);
    }
  }
  const double speedup = fast_ns > 0.0 ? reference_ns / fast_ns : 0.0;

  std::printf("%-26s %6s %14s %14s %18s\n", "stage", "reps", "median_ms",
              "p90_ms", "ns_per_unit");
  for (const auto& s : report.stages()) {
    std::printf("%-26s %6d %14.3f %14.3f %18.2f\n", s.name.c_str(), s.reps,
                static_cast<double>(s.median_ns) / 1e6,
                static_cast<double>(s.p90_ns) / 1e6,
                static_cast<double>(s.median_ns) / s.work_units_per_rep);
  }
  std::printf("all-pairs build speedup (reference / fast): %.2fx\n", speedup);

  // Bit-identity is pinned by tests/path_golden_test.cpp; this cheap
  // cross-check refuses to report a speedup for constructions that diverged.
  const std::vector<PathTable> reference =
      reference_tables(graph, horizon, max_hops, args.threads);
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    for (NodeId node = 0; node < graph.node_count(); ++node) {
      const PathTable::Entry& want =
          reference[static_cast<std::size_t>(root)].entry(node);
      const PathTable::Entry& got = paths.table(root).entry(node);
      if (got.weight != want.weight || got.last_rate != want.last_rate ||
          got.next_hop != want.next_hop || got.hops != want.hops) {
        std::fprintf(stderr, "FAIL: engines diverged at root %d node %d\n",
                     root, node);
        return 1;
      }
    }
  }

  if (!report.write_if_requested()) return 1;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: all-pairs speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
