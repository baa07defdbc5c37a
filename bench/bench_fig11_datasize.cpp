// Reproduces Figure 11: caching performance on the MIT Reality trace as a
// function of the average data size s_avg — i.e. of the node buffer
// pressure (buffers stay at the paper's 200-600 Mb while items grow).
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
      "Figure 11: data access performance vs average data size s_avg "
      "(MIT Reality, K=8, T_L=1 week)");
  bench::JsonReport report("bench_fig11_datasize", args);

  const double trace_days = args.days > 0 ? args.days : (args.fast ? 30 : 60);
  const ContactTrace trace =
      generate_trace(mit_reality_preset().with_duration(days(trace_days)));

  const std::vector<SchemeKind> kinds = {
      SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
      SchemeKind::kCacheData, SchemeKind::kBundleCache};
  const std::vector<double> sizes_mb =
      args.fast ? std::vector<double>{20, 200}
                : std::vector<double>{20, 50, 100, 200};

  std::vector<std::string> headers{"s_avg"};
  for (SchemeKind k : kinds) headers.push_back(scheme_kind_name(k));
  TextTable ratio(headers), delay(headers), copies(headers);

  auto config_at = [&](double size_mb) {
    ExperimentConfig config;
    config.avg_lifetime = weeks(1);
    config.avg_data_size = megabits(size_mb);
    config.ncl_count = 8;
    config.repetitions = args.reps;
    config.sim.maintenance_interval = days(1);
    config.sim.threads = args.threads;
    return config;
  };

  // One stage for the whole sweep: repetitions happen inside
  // run_comparison. s_avg is a workload axis: every point shares one
  // warm-up context, and each point runs its five schemes as one
  // comparison.
  report.stage(
      "fig11_datasize_sweep",
      [&] {
        const WarmupContext warmup =
            make_warmup_context(trace, config_at(sizes_mb.front()));
        for (double size_mb : sizes_mb) {
          const std::vector<ExperimentResult> results =
              run_comparison(trace, kinds, config_at(size_mb), &warmup);

          const std::string label = format_double(size_mb, 0) + "Mb";
          ratio.begin_row();
          delay.begin_row();
          copies.begin_row();
          ratio.add_cell(label);
          delay.add_cell(label);
          copies.add_cell(label);
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
      "Expected shape (paper Sec. VI-B): larger items mean fewer cacheable\n"
      "copies, so every scheme degrades; the NCL scheme degrades the most\n"
      "gently thanks to utility-based replacement, so its advantage WIDENS\n"
      "as the buffer constraint tightens.\n");
  return report.write_if_requested() ? 0 : 1;
}
