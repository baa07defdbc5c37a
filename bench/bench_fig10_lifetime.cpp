// Reproduces Figure 10: caching performance on the MIT Reality trace as a
// function of the average data lifetime T_L.
//  (a) successful ratio of queries,
//  (b) data access delay,
//  (c) caching overhead (average cached copies per data item),
// for the NCL scheme and the four baselines (K = 8, s = 1, s_avg = 100 Mb).
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
      "Figure 10: data access performance vs average data lifetime T_L "
      "(MIT Reality, K=8, s_avg=100Mb)");
  bench::JsonReport report("bench_fig10_lifetime", args);

  const double trace_days = args.days > 0 ? args.days : (args.fast ? 30 : 60);
  const ContactTrace trace =
      generate_trace(mit_reality_preset().with_duration(days(trace_days)));

  const std::vector<SchemeKind> kinds = {
      SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
      SchemeKind::kCacheData, SchemeKind::kBundleCache};
  const std::vector<double> lifetimes_hours =
      args.fast ? std::vector<double>{24, 168}
                : std::vector<double>{12, 72, 168, 336};

  std::vector<std::string> headers{"T_L"};
  for (SchemeKind k : kinds) headers.push_back(scheme_kind_name(k));
  TextTable ratio(headers), delay(headers), copies(headers);

  auto config_at = [&](double tl) {
    ExperimentConfig config;
    config.avg_lifetime = hours(tl);
    config.avg_data_size = megabits(100);
    config.ncl_count = 8;
    config.zipf_exponent = 1.0;
    config.repetitions = args.reps;
    config.sim.maintenance_interval = days(1);
    config.sim.threads = args.threads;
    return config;
  };

  // The experiment already repeats internally (config.repetitions), so the
  // stage runs the whole sweep once and gates on contacts processed. T_L
  // is a workload axis: every point shares one warm-up context, and each
  // point runs its five schemes as one comparison.
  report.stage(
      "fig10_lifetime_sweep",
      [&] {
        const WarmupContext warmup =
            make_warmup_context(trace, config_at(lifetimes_hours.front()));
        for (double tl : lifetimes_hours) {
          const std::vector<ExperimentResult> results =
              run_comparison(trace, kinds, config_at(tl), &warmup);

          ratio.begin_row();
          delay.begin_row();
          copies.begin_row();
          ratio.add_cell(format_duration(hours(tl)));
          delay.add_cell(format_duration(hours(tl)));
          copies.add_cell(format_duration(hours(tl)));
          for (const ExperimentResult& r : results) {
            ratio.add_number(r.success_ratio.mean(), 3);
            delay.add_number(r.delay_hours.mean(), 1);
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
      "Expected shape (paper Sec. VI-B): every scheme improves with larger\n"
      "T_L; NCL-Cache has the best ratio and delay throughout, with a\n"
      "multiple of NoCache's ratio; NoCache caches nothing; incidental\n"
      "schemes sit between.\n");
  return report.write_if_requested() ? 0 : 1;
}
