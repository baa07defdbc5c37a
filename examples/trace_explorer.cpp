// Trace explorer: inspect a contact trace — its Table-I-style summary, the
// calibrated opportunistic-path horizon, the NCL metric distribution and
// the selected central nodes.
//
// Usage:
//   trace_explorer                     # explore the MITReality preset
//   trace_explorer infocom05|infocom06|mitreality|ucsd [days]
//   trace_explorer path/to/trace.csv  [days]
//
// Trace files can be CSV ("start,duration,a,b"), ONE connectivity reports
// or iMote contact logs — the format is sniffed from the content (see
// traceio/).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "graph/ncl.h"
#include "trace/synthetic.h"
#include "traceio/cache.h"

using namespace dtn;

namespace {

ContactTrace load(const std::string& spec, double limit_days) {
  if (std::optional<SyntheticTraceConfig> preset = preset_by_name(spec)) {
    if (limit_days > 0) *preset = preset->with_duration(days(limit_days));
    return generate_trace(*preset);
  }
  ContactTrace trace = traceio::load_trace_any(spec);
  if (limit_days > 0) {
    trace = trace.slice(trace.start_time(),
                        trace.start_time() + days(limit_days));
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec = argc > 1 ? argv[1] : "mitreality";
  const double limit_days =
      argc > 2 ? std::atof(argv[2]) : (spec == "mitreality" ? 60.0 : 0.0);

  ContactTrace trace;
  try {
    trace = load(spec, limit_days);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot load '%s': %s\n", spec.c_str(), error.what());
    return 1;
  }

  const TraceSummary summary = summarize(trace);
  std::printf("=== %s ===\n", summary.name.c_str());
  std::printf("devices:            %d\n", summary.devices);
  std::printf("contacts:           %zu\n", summary.internal_contacts);
  std::printf("duration:           %.1f days\n", summary.duration_days);
  std::printf("pairwise frequency: %.3f contacts/pair/day (met pairs)\n",
              summary.pairwise_contact_frequency_per_day);
  std::printf("pair coverage:      %.1f%% of pairs ever met\n\n",
              100.0 * summary.pair_coverage);

  const ContactGraph graph =
      build_contact_graph(trace, -1.0, kMinContactsForRate);
  std::printf("contact graph:      %zu edges with >= 2 contacts\n\n",
              graph.edge_count());

  const Time horizon = calibrate_horizon(graph, 0.3);
  std::printf("calibrated path horizon T: %s (median metric 0.3)\n\n",
              format_duration(horizon).c_str());

  std::vector<double> metrics = ncl_metrics(graph, horizon);
  std::vector<double> sorted = metrics;
  std::sort(sorted.begin(), sorted.end());
  std::printf("NCL metric distribution (gini %.3f):\n", gini(metrics));
  Histogram hist(0.0, std::max(1e-9, sorted.back()), 10);
  for (double m : metrics) hist.add(m);
  std::printf("%s\n", hist.to_string(30).c_str());

  const NclSelection selection = select_ncls(graph, horizon, 8);
  TextTable table({"rank", "node", "metric"});
  for (std::size_t i = 0; i < selection.central_nodes.size(); ++i) {
    const NodeId node = selection.central_nodes[i];
    table.begin_row();
    table.add_integer(static_cast<long long>(i + 1));
    table.add_integer(node);
    table.add_number(selection.metric[static_cast<std::size_t>(node)], 4);
  }
  std::printf("top central node candidates:\n%s", table.to_string().c_str());
  return 0;
}
