// Trace ingestion bench: cold CSV parse vs sidecar cache write vs warm
// .dtntrace binary load, over a synthetic trace written to a scratch
// directory. The acceptance contract for the trace subsystem is that the
// warm binary load is at least 5x faster than re-parsing the text; pass
// `--min-speedup X` to enforce that ratio as the exit status (the
// bench-smoke ctest entry does), on top of the usual `--json` artifact
// gated by tools/bench_compare.py on ns per decoded contact.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

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
  const double min_speedup = bench::take_min_speedup(argc, argv);
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
  const std::string sidecar = traceio::sidecar_path(csv_path);

  // A dense synthetic trace: infocom-like contact dynamics, scaled by
  // --days (default 3 full days; --fast drops to 1).
  auto config = infocom06_preset();
  const double trace_days = args.days > 0 ? args.days : (args.fast ? 1.0 : 3.0);
  const ContactTrace trace = generate_trace(config.with_duration(
      days(trace_days)));
  save_trace_csv(trace, csv_path);
  std::printf("trace: %d nodes, %zu contacts, %.1f days (%s)\n",
              trace.node_count(), trace.size(), trace_days, csv_path.c_str());

  traceio::LoadOptions no_cache;
  no_cache.cache = traceio::CachePolicy::kBypass;

  report.stage(
      "csv_parse_cold",
      [&] {
        g_sink = traceio::load_trace_any(csv_path, no_cache).size();
      },
      "trace_contacts_decoded");

  traceio::LoadOptions refresh;
  refresh.cache = traceio::CachePolicy::kRefresh;
  report.stage(
      "cache_write",
      [&] {
        g_sink = traceio::load_trace_any(csv_path, refresh).size();
      },
      "trace_contacts_decoded");

  traceio::LoadOptions warm;
  warm.cache = traceio::CachePolicy::kUse;
  report.stage(
      "binary_warm_load",
      [&] {
        g_sink = traceio::load_trace_any(csv_path, warm).size();
      },
      "trace_contacts_decoded");

  std::error_code size_ec;
  const auto text_size = fs::file_size(csv_path, size_ec);
  const auto binary_size = fs::file_size(sidecar, size_ec);
  if (!size_ec) {
    std::printf("text %ju bytes -> binary %ju bytes (%.1f%%)\n",
                static_cast<std::uintmax_t>(text_size),
                static_cast<std::uintmax_t>(binary_size),
                100.0 * static_cast<double>(binary_size) /
                    static_cast<double>(text_size));
  }

  double cold_ns = 0.0;
  double warm_ns = 0.0;
  for (const auto& stage : report.stages()) {
    if (stage.name == "csv_parse_cold") {
      cold_ns = static_cast<double>(stage.median_ns);
    }
    if (stage.name == "binary_warm_load") {
      warm_ns = static_cast<double>(stage.median_ns);
    }
  }
  const double speedup = warm_ns > 0.0 ? cold_ns / warm_ns : 0.0;
  std::printf("warm binary load speedup over cold CSV parse: %.1fx\n",
              speedup);

  const bool json_ok = report.write_if_requested();

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup

  if (!json_ok) return 1;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: warm load speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
