// Reproduces Figure 13: the impact of the number of NCLs (K) on caching
// performance, on the Infocom06 trace with T_L = 3 h, across node buffer
// conditions (average data size 50 / 100 / 200 Mb).
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "experiment/experiment.h"
#include "trace/synthetic.h"

using namespace dtn;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Figure 13: impact of the number of NCLs (Infocom06, T_L=3h)");
  bench::JsonReport report("bench_fig13_ncl_count", args);

  const double trace_days = args.days > 0 ? args.days : (args.fast ? 2 : 4);
  const ContactTrace trace =
      generate_trace(infocom06_preset().with_duration(days(trace_days)));

  const std::vector<int> ks =
      args.fast ? std::vector<int>{1, 2, 5, 10} : std::vector<int>{1, 2, 3, 5, 8, 10};
  const std::vector<double> sizes_mb =
      args.fast ? std::vector<double>{100} : std::vector<double>{50, 100, 200};

  std::vector<std::string> headers{"K"};
  for (double s : sizes_mb) headers.push_back(format_double(s, 0) + "Mb");
  TextTable ratio(headers), delay(headers), copies(headers);

  auto config_at = [&](int k, double size_mb) {
    ExperimentConfig config;
    config.avg_lifetime = hours(3);
    config.avg_data_size = megabits(size_mb);
    config.ncl_count = k;
    config.repetitions = args.reps;
    config.sim.maintenance_interval = hours(2);
    config.sim.threads = args.threads;
    return config;
  };

  // K and s_avg leave the substrate alone, so every call shares one
  // warm-up context.
  report.stage(
      "fig13_ncl_count_sweep",
      [&] {
        const WarmupContext warmup = make_warmup_context(
            trace, config_at(ks.front(), sizes_mb.front()));
        for (int k : ks) {
          ratio.begin_row();
          delay.begin_row();
          copies.begin_row();
          ratio.add_integer(k);
          delay.add_integer(k);
          copies.add_integer(k);
          for (double size_mb : sizes_mb) {
            const ExperimentResult r = run_experiment(
                trace, SchemeKind::kNclCache, config_at(k, size_mb), &warmup);
            ratio.add_number(r.success_ratio.mean(), 3);
            delay.add_number(r.delay_hours.mean(), 2);
            copies.add_number(r.copies_per_item.mean(), 2);
          }
        }
      },
      "contacts_processed", 1);

  std::printf("(a) successful ratio\n%s\n", ratio.to_string().c_str());
  std::printf("(b) data access delay (hours)\n%s\n", delay.to_string().c_str());
  std::printf("(c) caching overhead (copies per item)\n%s\n",
              copies.to_string().c_str());
  std::printf(
      "Expected shape (paper Sec. VI-D): K=1 -> 2 brings the largest gain;\n"
      "beyond a handful of NCLs the newly added central nodes are no longer\n"
      "well connected and the curves flatten (K~5 was the paper's best for\n"
      "Infocom06); caching overhead grows with K while buffers allow.\n");
  return report.write_if_requested() ? 0 : 1;
}
