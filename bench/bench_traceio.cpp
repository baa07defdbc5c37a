// Trace ingestion bench: CSV parse of a synthetic trace through
// load_trace_any from a file in a scratch directory. The `--json` artifact
// is gated by tools/bench_compare.py on ns per decoded contact.
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "traceio/cache.h"

using namespace dtn;

namespace {

// Keeps the optimizer honest about unused loads.
volatile std::size_t g_sink = 0;

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("trace ingestion");
  bench::JsonReport report("bench_traceio", args);

  // Scratch directory keyed by pid so parallel ctest runs never collide.
  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dtn_bench_traceio_" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  const std::string csv_path = (scratch / "bench_trace.csv").string();

  // A dense synthetic trace: infocom-like contact dynamics, scaled by
  // --days (default 3 full days; --fast drops to 1).
  auto config = infocom06_preset();
  const double trace_days = args.days > 0 ? args.days : (args.fast ? 1.0 : 3.0);
  const ContactTrace trace = generate_trace(config.with_duration(
      days(trace_days)));
  save_trace_csv(trace, csv_path);
  std::printf("trace: %d nodes, %zu contacts, %.1f days (%s)\n",
              trace.node_count(), trace.size(), trace_days, csv_path.c_str());

  report.stage(
      "csv_parse_cold",
      [&] { g_sink = traceio::load_trace_any(csv_path).size(); },
      "trace_contacts_decoded");

  const bool json_ok = report.write_if_requested();

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup

  return json_ok ? 0 : 1;
}
