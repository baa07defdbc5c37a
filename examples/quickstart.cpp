// Quickstart: the smallest end-to-end use of the dtncache library.
//
//  1. Generate (or load) a contact trace.
//  2. Estimate the contact graph from the warm-up period and select NCLs.
//  3. Run the NCL caching scheme over a generated workload.
//  4. Read the metrics.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "experiment/experiment.h"
#include "trace/synthetic.h"

using namespace dtn;

int main() {
  // --- 1. A small synthetic DTN: 30 devices, 30 days, sparse contacts. ---
  SyntheticTraceConfig trace_config;
  trace_config.name = "quickstart";
  trace_config.node_count = 30;
  trace_config.duration = days(30);
  trace_config.target_total_contacts = 4000;
  trace_config.popularity_shape = 1.6;  // a few sociable hub devices
  trace_config.seed = 42;
  const ContactTrace trace = generate_trace(trace_config);

  const TraceSummary summary = summarize(trace);
  std::printf("trace: %d devices, %zu contacts over %.0f days\n",
              summary.devices, summary.internal_contacts, summary.duration_days);

  // --- 2 + 3. The experiment harness does the warm-up split, the NCL
  // selection and the simulation in one call. ---
  ExperimentConfig config;
  config.avg_lifetime = days(4);         // T_L
  config.avg_data_size = megabits(100);  // s_avg
  config.ncl_count = 4;                  // K
  config.repetitions = 3;
  config.sim.maintenance_interval = hours(12);

  // Peek at the NCL selection itself.
  const NclSelection ncls = warmup_ncl_selection(trace, config);
  std::printf("central nodes:");
  for (NodeId c : ncls.central_nodes) {
    std::printf(" %d (metric %.3f)", c,
                ncls.metric[static_cast<std::size_t>(c)]);
  }
  std::printf("\n\n");

  // --- 4. Compare the NCL scheme against NoCache on identical workloads. ---
  for (const ExperimentResult& r : run_comparison(
           trace, {SchemeKind::kNclCache, SchemeKind::kNoCache}, config)) {
    std::printf(
        "%-10s success ratio %.1f%%   mean delay %.1f h   copies/item %.2f\n",
        r.scheme.c_str(), 100.0 * r.success_ratio.mean(),
        r.delay_hours.mean(), r.copies_per_item.mean());
  }
  std::printf(
      "\nIntentional caching at the network's central locations answers\n"
      "queries that plain source-based access cannot reach in time.\n");
  return 0;
}
