// Microbenchmarks for the computational kernels: hypoexponential CDF
// evaluation by algorithm (Eqs. 1-2), the opportunistic-path Dijkstra,
// NCL metric + all-pairs tables, the replacement knapsack DP (Eq. 7), the
// exchange planner (Algorithm 1), workload sampling and trace generation.
// The knapsack and planner stages call the workspace forms NCL-Cache runs,
// with one workspace held across calls as the scheme holds it across
// contacts.
//
// Each stage runs a fixed amount of work per repetition (deterministic
// inputs, seeded RNG) and reports median/p10/p90 wall time plus the
// instrumentation counter deltas; `--json PATH` emits the machine-readable
// record consumed by tools/bench_compare.py, which gates on time per
// counter unit (ns per CDF evaluation, per DP cell, ...), not raw wall
// time.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "cache/knapsack.h"
#include "cache/replacement.h"
#include "common/rng.h"
#include "graph/all_pairs.h"
#include "graph/hypoexp.h"
#include "graph/ncl.h"
#include "graph/opportunistic_path.h"
#include "trace/synthetic.h"
#include "workload/zipf.h"

using namespace dtn;

namespace {

std::vector<double> random_rates(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rates(n);
  for (auto& r : rates) r = rng.uniform(0.05, 5.0);
  return rates;
}

ContactGraph random_graph(NodeId n, double edge_prob, std::uint64_t seed) {
  Rng rng(seed);
  ContactGraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(edge_prob)) g.set_rate(i, j, rng.uniform(0.01, 2.0));
    }
  }
  return g;
}

// Prevents the optimizer from deleting a kernel whose result is unused.
volatile double g_sink = 0.0;

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("micro kernels");
  bench::JsonReport report("bench_micro_kernels", args);

  // --fast shrinks every stage ~10x for smoke runs (CI, sanitizer trees).
  const int scale = args.fast ? 1 : 10;

  {
    const auto rates = random_rates(8, 1);
    report.stage(
        "hypoexp_closed_form/r8",
        [&] {
          for (int i = 0; i < 2000 * scale; ++i) {
            g_sink = hypoexp_cdf_closed_form(rates, 2.0);
          }
        },
        "hypoexp_closed_form_evals");
  }
  {
    const auto rates = random_rates(8, 1);
    report.stage(
        "hypoexp_uniformization/r8",
        [&] {
          for (int i = 0; i < 200 * scale; ++i) {
            g_sink = hypoexp_cdf_uniformization(rates, 2.0);
          }
        },
        "hypoexp_uniformization_evals");
  }
  {
    const std::vector<double> rates(6, 0.8);  // all equal: Erlang dispatch
    report.stage(
        "hypoexp_erlang/r6",
        [&] {
          for (int i = 0; i < 2000 * scale; ++i) {
            g_sink = hypoexp_cdf(rates, 2.0);
          }
        },
        "hypoexp_erlang_evals");
  }
  {
    const auto rates = random_rates(4, 2);
    report.stage(
        "hypoexp_dispatch/r4",
        [&] {
          for (int i = 0; i < 2000 * scale; ++i) {
            g_sink = hypoexp_cdf(rates, 2.0);
          }
        },
        "hypoexp_closed_form_evals");
  }
  {
    const ContactGraph g = random_graph(97, 0.3, 7);
    report.stage(
        "dijkstra/n97",
        [&] {
          for (int i = 0; i < scale; ++i) {
            g_sink = compute_opportunistic_paths(g, 0, 2.0).weight(96);
          }
        },
        "dijkstra_relaxations");
  }
  {
    const ContactGraph g = random_graph(97, 0.3, 7);
    report.stage(
        "ncl_metrics/n97",
        [&] { g_sink = ncl_metrics(g, 2.0, 3, args.threads).front(); },
        "dijkstra_relaxations");
  }
  {
    const ContactGraph g = random_graph(args.fast ? 32 : 97, 0.3, 7);
    report.stage(
        "all_pairs/full",
        [&] {
          const AllPairsPaths paths(g, 2.0, 3, args.threads);
          g_sink = paths.weight(0, 1);
        },
        "path_tables_built");
  }
  {
    Rng rng(3);
    std::vector<KnapsackItem> items;
    for (int i = 0; i < 128; ++i) {
      items.push_back({rng.uniform(), rng.uniform_int(1 << 20, 20 << 20)});
    }
    KnapsackWorkspace ws;
    KnapsackResult result;
    report.stage(
        "knapsack_dp/128",
        [&] {
          for (int i = 0; i < 5 * scale; ++i) {
            solve_knapsack(items, 600LL << 20, 1 << 20, ws, result);
            g_sink = result.total_value;
          }
        },
        "knapsack_dp_cells");
  }
  {
    Rng rng(5);
    std::vector<ReplacementItem> pool;
    for (int i = 0; i < 32; ++i) {
      ReplacementItem item;
      item.id = i;
      item.size = rng.uniform_int(1 << 20, 20 << 20);
      item.popularity = rng.uniform();
      item.at_a = rng.bernoulli(0.5);
      pool.push_back(item);
    }
    const ReplacementConfig config;
    ReplacementWorkspace ws;
    ReplacementPlan plan;
    report.stage(
        "plan_replacement/32",
        [&] {
          for (int i = 0; i < 20 * scale; ++i) {
            Rng trial_rng(11);
            plan_replacement(pool, 300LL << 20, 300LL << 20, 0.7, 0.4, config,
                             trial_rng, ws, plan);
            g_sink = static_cast<double>(plan.moved_bytes);
          }
        },
        "replacement_items_pooled");
  }
  {
    const ZipfDistribution zipf(10000, 1.0);
    report.stage("zipf_sample/10k", [&] {
      Rng rng(9);
      double acc = 0.0;
      for (int i = 0; i < 20000 * scale; ++i) {
        acc += static_cast<double>(zipf.sample(rng));
      }
      g_sink = acc;
    });
  }
  {
    SyntheticTraceConfig config;
    config.node_count = 97;
    config.duration = days(10);
    config.target_total_contacts = 20000;
    report.stage("trace_generation/97", [&] {
      g_sink = static_cast<double>(generate_trace(config).events().size());
    });
  }

  // Human-readable summary mirroring the JSON stages.
  std::printf("%-28s %6s %14s %14s %18s\n", "stage", "reps", "median_ms",
              "p90_ms", "ns_per_unit");
  for (const auto& s : report.stages()) {
    std::printf("%-28s %6d %14.3f %14.3f %18.2f\n", s.name.c_str(), s.reps,
                static_cast<double>(s.median_ns) / 1e6,
                static_cast<double>(s.p90_ns) / 1e6,
                static_cast<double>(s.median_ns) / s.work_units_per_rep);
  }

  return report.write_if_requested() ? 0 : 1;
}
