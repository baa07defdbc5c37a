// Ablation: pieces of the cache-replacement design (Sec. V-D).
//
// Variants of the NCL scheme:
//  * full        — probabilistic knapsack exchange (Algorithm 1), the paper;
//  * det-knapsack — deterministic knapsack (Sec. V-D.2 without V-D.3);
//  * no-exchange — contact-time replacement disabled entirely (push only).
// Swept over buffer pressure, to see where each piece earns its keep.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "experiment/experiment.h"
#include "trace/synthetic.h"

using namespace dtn;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Ablation: replacement design (MIT Reality, K=8, T_L=1wk)");

  const double trace_days = args.days > 0 ? args.days : (args.fast ? 30 : 60);
  const ContactTrace trace =
      generate_trace(mit_reality_preset().with_duration(days(trace_days)));

  struct Variant {
    const char* label;
    bool enable_exchange;
    bool probabilistic;
  };
  const Variant variants[] = {
      {"full (Algorithm 1)", true, true},
      {"det-knapsack", true, false},
      {"no-exchange", false, false},
  };
  const double sizes_mb[] = {50, 100, 200};

  bench::JsonReport report("bench_ablation_replacement", args);
  TextTable ratio({"s_avg", "full (Algorithm 1)", "det-knapsack",
                   "no-exchange"});
  TextTable copies({"s_avg", "full (Algorithm 1)", "det-knapsack",
                    "no-exchange"});
  report.stage(
      "ablation_replacement_sweep",
      [&] {
        for (double size_mb : sizes_mb) {
          ratio.begin_row();
          copies.begin_row();
          ratio.add_cell(format_double(size_mb, 0) + "Mb");
          copies.add_cell(format_double(size_mb, 0) + "Mb");
          for (const Variant& variant : variants) {
            ExperimentConfig config;
            config.avg_lifetime = weeks(1);
            config.avg_data_size = megabits(size_mb);
            config.ncl_count = 8;
            config.enable_replacement = variant.enable_exchange;
            config.repetitions = args.reps;
            config.sim.maintenance_interval = days(1);
            config.sim.threads = args.threads;
            // The probabilistic flag lives in NclSchemeConfig::replacement,
            // which run_experiment does not expose — drive the scheme by
            // hand.
            const Time warmup_end =
                trace.start_time() + trace.duration() / 2.0;
            const ContactGraph graph = warmup_graph(trace, config);
            const Time horizon = effective_horizon(graph, config);
            const NclSelection ncls =
                select_ncls(graph, horizon, config.ncl_count,
                            config.sim.max_hops, config.sim.threads);

            RunningStats ratio_stats, copies_stats;
            for (int rep = 0; rep < config.repetitions; ++rep) {
              const std::uint64_t rep_seed =
                  config.seed +
                  0x9E3779B9ULL * static_cast<std::uint64_t>(rep + 1);
              WorkloadConfig wc;
              wc.start = warmup_end;
              wc.end = trace.end_time();
              wc.avg_lifetime = config.avg_lifetime;
              wc.avg_size = config.avg_data_size;
              wc.seed = rep_seed;
              const Workload workload =
                  generate_workload(wc, trace.node_count());

              NclSchemeConfig sc;
              sc.central_nodes = ncls.central_nodes;
              sc.buffer_capacity = draw_buffer_capacities(
                  config, trace.node_count(), rep_seed ^ 0xB0FFu);
              sc.enable_replacement = variant.enable_exchange;
              sc.replacement.probabilistic = variant.probabilistic;
              NclCachingScheme scheme(std::move(sc));

              SimConfig sim = config.sim;
              sim.path_horizon = horizon;
              sim.seed = rep_seed ^ 0x51Au;
              const RunResult run =
                  run_simulation(trace, workload, scheme, sim);
              ratio_stats.add(run.metrics.success_ratio());
              copies_stats.add(run.metrics.mean_copies());
            }
            ratio.add_number(ratio_stats.mean(), 3);
            copies.add_number(copies_stats.mean(), 2);
          }
        }
      },
      "contacts_processed", 1);

  std::printf("successful ratio\n%s\n", ratio.to_string().c_str());
  std::printf("caching overhead (copies per item)\n%s\n",
              copies.to_string().c_str());
  std::printf(
      "Reading: on this substrate the three variants are close — the push\n"
      "already places copies well, so the exchange's main job is keeping\n"
      "them CORRECT under churn: its advantage shows against the\n"
      "insertion-time policies of Fig. 12 (which evict blindly), not\n"
      "against merely switching the exchange off. The probabilistic twist\n"
      "trims copies slightly (copy-control) at nearly unchanged ratio.\n");
  return report.write_if_requested() ? 0 : 1;
}
