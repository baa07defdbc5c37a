// tracetool — inspect, convert and validate contact traces.
//
// Subcommands:
//   stats <file>           Table-I-style summary plus contact-duration and
//                          inter-contact percentiles
//   convert <in> <out>     read any supported format, write CSV
//   validate <file>        strict parse with file:line diagnostics; exit 0
//                          only when the file is flawless
//   --self-test            in-memory round-trip checks (registered in ctest)
//
// Input formats are sniffed from content (CSV, ONE connectivity report,
// iMote pairwise log). Loading never writes a file, so it is safe to point
// at read-only datasets. An argument that starts with "--" and is not a
// known flag exits 2, so a mistyped flag is never taken as a file name.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "daemon/rate_estimator.h"
#include "trace/trace_io.h"
#include "traceio/cache.h"
#include "traceio/reader.h"

using namespace dtn;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: tracetool <command> [options]\n"
      "  tracetool stats <file>         print a trace summary\n"
      "                                 --pairs: per-pair inter-contact\n"
      "                                 table (count, mean/EWMA gap, rate)\n"
      "  tracetool convert <in> <out>   convert any format to CSV\n"
      "  tracetool validate <file>      strict parse, file:line diagnostics\n"
      "  tracetool --self-test          run built-in round-trip checks\n"
      "options:\n"
      "  --strict     strict parsing for stats/convert (validate always is)\n");
  std::exit(2);
}

struct ToolOptions {
  std::string command;
  std::vector<std::string> paths;
  bool strict = false;
  bool pairs = false;
};

ToolOptions parse_args(int argc, char** argv) {
  ToolOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      options.strict = true;
    } else if (arg == "--pairs") {
      options.pairs = true;
    } else if (arg == "--self-test") {
      options.command = "self-test";
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "tracetool: unknown option '%s'\n", arg.c_str());
      usage();
    } else if (options.command.empty()) {
      options.command = arg;
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.command.empty()) usage();
  return options;
}

ContactTrace load(const ToolOptions& options, const std::string& path) {
  traceio::LoadOptions load_options;
  load_options.read.strict = options.strict;
  return traceio::load_trace_any(path, load_options);
}

void print_percentiles(const char* label, std::vector<double> samples) {
  if (samples.empty()) {
    std::printf("%s: none\n", label);
    return;
  }
  std::printf("%s: p50 %.1fs  p90 %.1fs  p99 %.1fs\n", label,
              percentile(samples, 0.50), percentile(samples, 0.90),
              percentile(samples, 0.99));
}

/// Formats the per-pair inter-contact table — count, mean gap, EWMA gap and
/// the implied meeting rate — through the daemon's EwmaRateEstimator, so
/// what tracetool reports is exactly what a dtnd instance warm-started from
/// this trace would serve. Output order is canonical (a, b) ascending and
/// every number prints through a fixed format, so the bytes golden-test.
void write_pair_rates(const ContactTrace& trace, std::ostream& out) {
  daemon::EwmaRateEstimator estimator(trace.node_count());
  estimator.warm_start(trace);
  out << "pair  contacts  mean_gap_s  ewma_gap_s  rate_per_day\n";
  for (const daemon::PairRateSummary& s : estimator.summaries(1)) {
    char line[160];
    std::snprintf(line, sizeof(line), "%d-%d  %u  %.3f  %.3f  %.6f\n", s.a,
                  s.b, s.count, s.mean_gap, s.ewma_gap, s.rate * 86400.0);
    out << line;
  }
}

/// Node-degree (distinct partners) and per-pair contact-rate distribution
/// summaries: how many neighbours each Dijkstra root relaxes, and how the
/// edge rates behind Eq. 2 spread. Fixed formats and canonical pair order,
/// so the bytes golden-test.
void write_trace_distributions(const ContactTrace& trace, std::ostream& out) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(trace.events().size());
  for (const ContactEvent& e : trace.events()) {
    pairs.emplace_back(std::min(e.a, e.b), std::max(e.a, e.b));
  }
  std::sort(pairs.begin(), pairs.end());

  std::vector<double> degree(static_cast<std::size_t>(trace.node_count()),
                             0.0);
  std::vector<double> rates;
  const double span_days = std::max(trace.duration(), 1.0) / 86400.0;
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t j = i;
    while (j < pairs.size() && pairs[j] == pairs[i]) ++j;
    degree[static_cast<std::size_t>(pairs[i].first)] += 1.0;
    degree[static_cast<std::size_t>(pairs[i].second)] += 1.0;
    rates.push_back(static_cast<double>(j - i) / span_days);
    i = j;
  }

  char line[200];
  RunningStats deg;
  for (double d : degree) deg.add(d);
  if (degree.empty()) {
    out << "node degree:   none\n";
  } else {
    std::snprintf(line, sizeof(line),
                  "node degree:   min %.0f  p50 %.1f  p90 %.1f  max %.0f  "
                  "mean %.3f\n",
                  deg.min(), percentile(degree, 0.50), percentile(degree, 0.90),
                  deg.max(), deg.mean());
    out << line;
  }
  if (rates.empty()) {
    out << "pair rate/day: none\n";
  } else {
    RunningStats rs;
    for (double r : rates) rs.add(r);
    std::snprintf(line, sizeof(line),
                  "pair rate/day: pairs %zu  p50 %.3f  p90 %.3f  p99 %.3f  "
                  "max %.3f\n",
                  rates.size(), percentile(rates, 0.50),
                  percentile(rates, 0.90), percentile(rates, 0.99), rs.max());
    out << line;
  }
}

int cmd_stats(const ToolOptions& options) {
  if (options.paths.size() != 1) usage();
  const ContactTrace trace = load(options, options.paths[0]);
  const TraceSummary summary = summarize(trace);

  std::printf("name:               %s\n", summary.name.c_str());
  std::printf("devices:            %d\n", summary.devices);
  std::printf("contacts:           %zu\n", summary.internal_contacts);
  std::printf("span:               %.1f .. %.1f s (%.2f days)\n",
              trace.start_time(), trace.end_time(), summary.duration_days);
  std::printf("pairwise frequency: %.3f contacts/pair/day (met pairs)\n",
              summary.pairwise_contact_frequency_per_day);
  std::printf("pair coverage:      %.1f%% of pairs ever met\n",
              100.0 * summary.pair_coverage);

  std::vector<double> durations;
  std::vector<double> gaps;
  durations.reserve(trace.events().size());
  double prev_start = trace.start_time();
  double total_contact_time = 0.0;
  for (const ContactEvent& e : trace.events()) {
    durations.push_back(e.duration);
    total_contact_time += e.duration;
    if (e.start > prev_start) gaps.push_back(e.start - prev_start);
    prev_start = e.start;
  }
  std::printf("total contact time: %.1f hours\n", total_contact_time / 3600.0);
  print_percentiles("contact duration  ", std::move(durations));
  print_percentiles("inter-contact gap ", std::move(gaps));
  {
    std::ostringstream dist;
    write_trace_distributions(trace, dist);
    std::fputs(dist.str().c_str(), stdout);
  }
  if (options.pairs) {
    std::ostringstream pairs;
    write_pair_rates(trace, pairs);
    std::fputs(pairs.str().c_str(), stdout);
  }
  return 0;
}

int cmd_convert(const ToolOptions& options) {
  if (options.paths.size() != 2) usage();
  const std::string& in_path = options.paths[0];
  const std::string& out_path = options.paths[1];
  const ContactTrace trace = load(options, in_path);
  save_trace_csv(trace, out_path);
  std::printf("%s: %d nodes, %zu contacts -> %s (csv)\n", in_path.c_str(),
              trace.node_count(), trace.events().size(), out_path.c_str());
  return 0;
}

int cmd_validate(const ToolOptions& options) {
  if (options.paths.size() != 1) usage();
  ToolOptions strict = options;
  strict.strict = true;
  const ContactTrace trace = load(strict, options.paths[0]);
  std::printf("%s: OK (%d nodes, %zu contacts, %.2f days)\n",
              options.paths[0].c_str(), trace.node_count(),
              trace.events().size(), trace.duration() / 86400.0);
  return 0;
}

// ---- self test --------------------------------------------------------

#define TT_CHECK(cond)                                                   \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "self-test failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                     \
      return 1;                                                          \
    }                                                                    \
  } while (0)

ContactTrace self_test_trace() {
  std::vector<ContactEvent> events;
  events.push_back({10.0, 120.5, 0, 3});
  events.push_back({10.0, 30.0, 1, 2});
  events.push_back({400.25, 60.0, 0, 1});
  events.push_back({1000.0, 5.0, 2, 3});
  return ContactTrace(5, std::move(events), "selftest");
}

int run_self_test() {
  const ContactTrace trace = self_test_trace();

  // CSV text round-trip: write, re-read, write again — byte-identical, and
  // every field of every contact read back exactly.
  std::ostringstream csv1;
  write_trace_csv(trace, csv1);
  const traceio::TraceReader* csv = traceio::reader_for_format("csv");
  TT_CHECK(csv != nullptr);
  traceio::TraceReadOptions csv_options;
  csv_options.min_node_count = trace.node_count();
  const ContactTrace csv_back =
      csv->read(csv1.str(), trace.name(), "selftest.csv", csv_options);
  std::ostringstream csv2;
  write_trace_csv(csv_back, csv2);
  TT_CHECK(csv1.str() == csv2.str());
  TT_CHECK(csv_back.node_count() == trace.node_count());
  TT_CHECK(csv_back.events() == trace.events());

  // ONE connectivity report: up/down pairs become contacts.
  const traceio::TraceReader* one = traceio::reader_for_format("one");
  TT_CHECK(one != nullptr);
  const ContactTrace one_trace = one->read(
      "0.0 CONN 7 3 up\n10.0 CONN 7 3 down\n5.0 CONN 3 9 up\n"
      "25.0 CONN 3 9 down\n",
      "one", "one.txt", {});
  TT_CHECK(one_trace.node_count() == 3);  // raw {3,7,9} -> dense {0,1,2}
  TT_CHECK(one_trace.events().size() == 2);

  // iMote log: overlapping sightings merge, clocks normalize to t=0.
  const traceio::TraceReader* imote = traceio::reader_for_format("imote");
  TT_CHECK(imote != nullptr);
  const ContactTrace imote_trace = imote->read(
      "20 30 100 160\n20 30 150 200\n41 20 120 130\n", "imote",
      "imote.txt", {});
  TT_CHECK(imote_trace.events().size() == 2);
  TT_CHECK(imote_trace.start_time() == 0.0);

  // stats --pairs golden: the per-pair table through the daemon estimator,
  // hand-computed. Pair 0-1 gaps {60, 120}: EWMA(0.125) = 0.125*120 +
  // 0.875*60 = 67.5, mean 90. Pair 1-2 has a duplicate timestamp (one
  // meeting reported twice): the zero gap bumps the count only, so the
  // single positive gap 300 is both mean and EWMA. Pair 0-2 has a lone
  // contact: no inter-contact sample, rate 0.
  std::vector<ContactEvent> pair_events;
  pair_events.push_back({0.0, 10.0, 0, 1});
  pair_events.push_back({30.0, 10.0, 0, 2});
  pair_events.push_back({60.0, 10.0, 0, 1});
  pair_events.push_back({100.0, 10.0, 1, 2});
  pair_events.push_back({100.0, 10.0, 1, 2});
  pair_events.push_back({180.0, 10.0, 0, 1});
  pair_events.push_back({400.0, 10.0, 1, 2});
  const ContactTrace pair_trace(3, std::move(pair_events), "pairs");
  std::ostringstream pair_out;
  write_pair_rates(pair_trace, pair_out);
  const std::string pair_golden =
      "pair  contacts  mean_gap_s  ewma_gap_s  rate_per_day\n"
      "0-1  3  90.000  67.500  1280.000000\n"
      "0-2  1  0.000  0.000  0.000000\n"
      "1-2  3  150.000  300.000  288.000000\n";
  TT_CHECK(pair_out.str() == pair_golden);

  // stats distributions golden, hand-computed on the same trace. Every
  // node has two distinct partners. Span = 410 s (last contact *end*), so
  // pair 0-1 with 3 contacts runs at 3 * 86400 / 410 = 632.195
  // contacts/day, pair 0-2 at 210.732, pair 1-2 at 632.195: sorted rates
  // {210.7, 632.2, 632.2} put every reported percentile at 632.195.
  std::ostringstream dist_out;
  write_trace_distributions(pair_trace, dist_out);
  const std::string dist_golden =
      "node degree:   min 2  p50 2.0  p90 2.0  max 2  mean 2.000\n"
      "pair rate/day: pairs 3  p50 632.195  p90 632.195  p99 632.195  "
      "max 632.195\n";
  TT_CHECK(dist_out.str() == dist_golden);

  std::printf("tracetool self-test: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ToolOptions options = parse_args(argc, argv);
  try {
    if (options.command == "stats") return cmd_stats(options);
    if (options.command == "convert") return cmd_convert(options);
    if (options.command == "validate") return cmd_validate(options);
    if (options.command == "self-test") return run_self_test();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tracetool: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "tracetool: unknown command '%s'\n",
               options.command.c_str());
  usage();
}
