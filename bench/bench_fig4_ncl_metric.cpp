// Reproduces Figure 4: the distribution of NCL selection metric values on
// each trace, validating that the metric is highly skewed — a few nodes are
// far better connected than the rest, so a small K covers the network.
//
// The paper uses T = 1 h (Infocom05/06), 1 week (MIT Reality), 3 days
// (UCSD), chosen "adaptively ... to ensure the differentiation of the NCL
// selection metric values". We report both the paper's T and our
// auto-calibrated T (median metric = 0.3) for each trace.
#include <algorithm>
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "graph/ncl.h"
#include "trace/synthetic.h"

using namespace dtn;

namespace {

std::string metric_table(const ContactTrace& trace, Time paper_t,
                         int threads) {
  const ContactGraph graph = build_contact_graph(trace, -1.0, 2);

  TextTable table({"T", "max", "p90", "median", "p10", "max/median", "gini"});
  for (int variant = 0; variant < 2; ++variant) {
    const Time horizon =
        variant == 0 ? paper_t
                     : calibrate_horizon(graph, 0.3, minutes(1), days(90), 8,
                                         threads);
    std::vector<double> metrics = ncl_metrics(graph, horizon, 8, threads);
    std::vector<double> sorted = metrics;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    table.begin_row();
    table.add_cell((variant == 0 ? "paper " : "auto ") +
                   format_duration(horizon));
    table.add_number(sorted.back(), 3);
    table.add_number(percentile(sorted, 0.9), 3);
    table.add_number(median, 3);
    table.add_number(percentile(sorted, 0.1), 3);
    table.add_number(median > 0 ? sorted.back() / median : 0.0, 2);
    table.add_number(gini(metrics), 3);
  }
  return table.to_string();
}

void report_trace(bench::JsonReport& report, const std::string& name,
                  const ContactTrace& trace, Time paper_t, int threads) {
  std::string rendered;
  report.stage(
      "ncl_metric/" + name,
      [&] { rendered = metric_table(trace, paper_t, threads); },
      "dijkstra_relaxations");
  std::printf("--- %s (N=%d) ---\n%s\n", name.c_str(), trace.node_count(),
              rendered.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 4: NCL selection metric distributions");
  bench::JsonReport report("bench_fig4_ncl_metric", args);

  // Shortened trace slices keep the bench fast; rates (and therefore the
  // metric) are duration-invariant in the generator.
  const double mit_days = args.days > 0 ? args.days : (args.fast ? 20 : 60);
  const double ucsd_days = args.days > 0 ? args.days : (args.fast ? 10 : 25);

  report_trace(report, "Infocom05", generate_trace(infocom05_preset()),
               hours(1), args.threads);
  report_trace(report, "Infocom06", generate_trace(infocom06_preset()),
               hours(1), args.threads);
  report_trace(
      report, "MITReality",
      generate_trace(mit_reality_preset().with_duration(days(mit_days))),
      weeks(1), args.threads);
  report_trace(report, "UCSD",
               generate_trace(ucsd_preset().with_duration(days(ucsd_days))),
               days(3), args.threads);

  std::printf(
      "Reading: in every trace the top nodes' metric is a large multiple of\n"
      "the median (max/median column) — the skew Fig. 4 validates. With the\n"
      "paper's fixed T the dense conference traces saturate towards 1;\n"
      "the adaptive T restores differentiation, as Sec. IV-B prescribes.\n");
  return report.write_if_requested() ? 0 : 1;
}
