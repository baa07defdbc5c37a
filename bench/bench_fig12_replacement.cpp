// Reproduces Figure 12: effectiveness of the utility-based cache
// replacement (Sec. V-D) against FIFO, LRU and Greedy-Dual-Size inside the
// same NCL caching scheme, on the MIT Reality trace, as buffer pressure
// grows (s_avg 20 -> 200 Mb, T_L = 1 week).
//  (a) successful ratio, (b) data access delay,
//  (c) cache replacement overhead (replaced items per data item).
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "experiment/experiment.h"
#include "trace/synthetic.h"

using namespace dtn;

namespace {

const char* strategy_name(CacheStrategy s) {
  switch (s) {
    case CacheStrategy::kUtilityExchange: return "Utility(ours)";
    case CacheStrategy::kFifo: return "FIFO";
    case CacheStrategy::kLru: return "LRU";
    case CacheStrategy::kGds: return "GreedyDualSize";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Figure 12: cache replacement strategies (MIT Reality, K=8, T_L=1wk)");
  bench::JsonReport report("bench_fig12_replacement", args);

  const double trace_days = args.days > 0 ? args.days : (args.fast ? 30 : 60);
  const ContactTrace trace =
      generate_trace(mit_reality_preset().with_duration(days(trace_days)));

  const std::vector<CacheStrategy> strategies = {
      CacheStrategy::kUtilityExchange, CacheStrategy::kFifo,
      CacheStrategy::kLru, CacheStrategy::kGds};
  const std::vector<double> sizes_mb =
      args.fast ? std::vector<double>{50, 200}
                : std::vector<double>{20, 50, 100, 200};

  std::vector<std::string> headers{"s_avg"};
  for (CacheStrategy s : strategies) headers.push_back(strategy_name(s));
  TextTable ratio(headers), delay(headers), overhead(headers);

  auto config_at = [&](double size_mb, CacheStrategy strategy) {
    ExperimentConfig config;
    config.avg_lifetime = weeks(1);
    config.avg_data_size = megabits(size_mb);
    config.ncl_count = 8;
    config.strategy = strategy;
    config.repetitions = args.reps;
    config.sim.maintenance_interval = days(1);
    config.sim.threads = args.threads;
    return config;
  };

  // Replacement work dominates here, so the stage gates on evictions.
  // Strategy and s_avg leave the substrate alone, so every call shares one
  // warm-up context.
  report.stage(
      "fig12_replacement_sweep",
      [&] {
        const WarmupContext warmup = make_warmup_context(
            trace, config_at(sizes_mb.front(), strategies.front()));
        for (double size_mb : sizes_mb) {
          const std::string label = format_double(size_mb, 0) + "Mb";
          ratio.begin_row();
          delay.begin_row();
          overhead.begin_row();
          ratio.add_cell(label);
          delay.add_cell(label);
          overhead.add_cell(label);
          for (CacheStrategy strategy : strategies) {
            const ExperimentResult r =
                run_experiment(trace, SchemeKind::kNclCache,
                               config_at(size_mb, strategy), &warmup);
            ratio.add_number(r.success_ratio.mean(), 3);
            delay.add_number(r.delay_hours.mean(), 1);
            overhead.add_number(r.replacement_overhead.mean(), 2);
          }
        }
      },
      "contacts_processed", 1);

  std::printf("(a) successful ratio\n%s\n", ratio.to_string().c_str());
  std::printf("(b) data access delay (hours)\n%s\n", delay.to_string().c_str());
  std::printf("(c) replacement overhead (replaced items per data item)\n%s\n",
              overhead.to_string().c_str());
  std::printf(
      "Expected shape (paper Sec. VI-C): with loose buffers (small s_avg)\n"
      "the traditional policies trail only mildly; as s_avg grows they pick\n"
      "the wrong data to keep and the gap to the utility strategy widens;\n"
      "replacement overhead differs only slightly across strategies.\n");
  return report.write_if_requested() ? 0 : 1;
}
