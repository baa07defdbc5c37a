// dtnsim — command-line experiment runner.
//
// Runs any data-access scheme over any trace (Table-I presets or a trace
// file) with the paper's workload model, printing one row per scheme (and
// optionally machine-readable CSV).
//
// Examples:
//   dtnsim --trace mitreality --days 60 --scheme all
//   dtnsim --trace infocom06 --scheme ncl --k 5 --tl-hours 3
//   dtnsim --trace path/to/contacts.csv --scheme ncl,nocache --csv
//   dtnsim --trace infocom05 --days 2 --scheme ncl --miss-prob 0.2
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "common/instrument.h"
#include "common/scan.h"
#include "common/table.h"
#include "experiment/experiment.h"
#include "trace/synthetic.h"
#include "traceio/cache.h"
#include "parse_number.h"

using namespace dtn;

namespace {

struct CliOptions {
  std::string trace = "mitreality";
  std::string trace_format;    // empty = sniff from content
  double days = 0.0;           // 0 = preset default
  std::vector<std::string> schemes{"all"};
  double tl_hours = 0.0;       // 0 = trace-dependent default
  double size_mb = 100.0;
  int k = 8;
  int reps = 2;
  std::uint64_t seed = 2026;
  double zipf = 1.0;
  std::string response = "pathweight";
  std::string strategy = "utility";
  double miss_prob = 0.0;
  bool dynamic_ncl = false;
  bool csv = false;
  bool stats = false;
  int threads = 0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --trace NAME     infocom05|infocom06|mitreality|ucsd or a trace\n"
      "                   file (CSV, ONE report or iMote log; format\n"
      "                   auto-detected)\n"
      "  --trace-format F force the trace file format: csv|one|imote\n"
      "  --days D         limit/define the trace duration in days\n"
      "  --scheme LIST    comma list of ncl,nocache,random,cachedata,bundle\n"
      "                   or 'all' (default)\n"
      "  --tl-hours H     average data lifetime T_L (default: trace-based)\n"
      "  --size-mb S      average data size in megabits (default 100)\n"
      "  --k K            number of NCLs (default 8)\n"
      "  --reps R         repetitions (default 2)\n"
      "  --seed S         base seed\n"
      "  --zipf S         Zipf exponent (default 1.0)\n"
      "  --response M     pathweight|sigmoid|always\n"
      "  --strategy M     utility|fifo|lru|gds\n"
      "  --miss-prob P    contact miss probability (failure injection)\n"
      "  --dynamic-ncl    re-select central nodes at every maintenance tick\n"
      "  --csv            machine-readable CSV instead of a table\n"
      "  --stats          print stage timers and domain counters to stderr\n"
      "                   after the run (no-op in DTN_INSTRUMENT=OFF builds)\n"
      "  --threads T      worker threads (0 = all cores, 1 = serial);\n"
      "                   results are identical for every value\n",
      argv0);
  std::exit(2);
}

/// The names of a --scheme list; an empty name exits 2.
std::vector<std::string> parse_scheme_list(std::string_view list) {
  std::vector<std::string_view> names(scan::split_csv(list, {}));
  scan::split_csv(list, names);
  for (const std::string_view name : names) {
    if (name.empty()) {
      std::fprintf(stderr, "--scheme: empty scheme name in '%.*s'\n",
                   static_cast<int>(list.size()), list.data());
      std::exit(2);
    }
  }
  return {names.begin(), names.end()};
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      options.trace = next_value(i);
    } else if (flag == "--trace-format") {
      options.trace_format = next_value(i);
    } else if (flag == "--days") {
      options.days = parse_number<double>(flag, next_value(i));
    } else if (flag == "--scheme") {
      options.schemes = parse_scheme_list(next_value(i));
    } else if (flag == "--tl-hours") {
      options.tl_hours = parse_number<double>(flag, next_value(i));
    } else if (flag == "--size-mb") {
      options.size_mb = parse_number<double>(flag, next_value(i));
    } else if (flag == "--k") {
      options.k = parse_number<int>(flag, next_value(i));
    } else if (flag == "--reps") {
      options.reps = parse_number<int>(flag, next_value(i));
    } else if (flag == "--seed") {
      options.seed = parse_number<std::uint64_t>(flag, next_value(i));
    } else if (flag == "--zipf") {
      options.zipf = parse_number<double>(flag, next_value(i));
    } else if (flag == "--response") {
      options.response = next_value(i);
    } else if (flag == "--strategy") {
      options.strategy = next_value(i);
    } else if (flag == "--miss-prob") {
      options.miss_prob = parse_number<double>(flag, next_value(i));
    } else if (flag == "--dynamic-ncl") {
      options.dynamic_ncl = true;
    } else if (flag == "--threads") {
      options.threads = parse_number<int>(flag, next_value(i));
      if (options.threads < 0) {
        std::fprintf(stderr, "--threads must be >= 0 (0 = all cores)\n");
        std::exit(2);
      }
    } else if (flag == "--csv") {
      options.csv = true;
    } else if (flag == "--stats") {
      options.stats = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", flag.c_str());
      usage(argv[0]);
    }
  }
  return options;
}

std::optional<SchemeKind> parse_scheme(const std::string& name) {
  if (name == "ncl") return SchemeKind::kNclCache;
  if (name == "nocache") return SchemeKind::kNoCache;
  if (name == "random") return SchemeKind::kRandomCache;
  if (name == "cachedata") return SchemeKind::kCacheData;
  if (name == "bundle") return SchemeKind::kBundleCache;
  return std::nullopt;
}

/// Days a preset runs for without --days: the campus traces are cut to
/// 60 (MIT Reality) and 25 (UCSD) days, the conference traces run whole.
double default_days(const std::string& preset) {
  if (preset == "mitreality") return 60.0;
  if (preset == "ucsd") return 25.0;
  return 0.0;
}

ContactTrace build_trace(const CliOptions& options) {
  if (std::optional<SyntheticTraceConfig> preset =
          preset_by_name(options.trace)) {
    const double limit =
        options.days > 0 ? options.days : default_days(options.trace);
    if (limit > 0) *preset = preset->with_duration(days(limit));
    return generate_trace(*preset);
  }
  traceio::LoadOptions load;
  load.format = options.trace_format;
  return traceio::load_trace_any(options.trace, load);
}

double default_lifetime_hours(const ContactTrace& trace) {
  // Sparse long traces want long-lived data (MIT-style: 1 week); dense
  // short traces want hours (Infocom-style).
  return trace.duration() > days(10) ? 168.0 : 3.0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse(argc, argv);

  std::vector<SchemeKind> kinds;
  for (const std::string& name : options.schemes) {
    if (name == "all") {
      kinds = {SchemeKind::kNclCache, SchemeKind::kNoCache,
               SchemeKind::kRandomCache, SchemeKind::kCacheData,
               SchemeKind::kBundleCache};
      break;
    }
    const auto kind = parse_scheme(name);
    if (!kind) {
      std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
      return 2;
    }
    kinds.push_back(*kind);
  }

  // Parse (or generate) once; everything below shares the same immutable
  // instance.
  std::shared_ptr<const ContactTrace> trace;
  try {
    trace = std::make_shared<const ContactTrace>(build_trace(options));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot build trace '%s': %s\n",
                 options.trace.c_str(), error.what());
    return 1;
  }

  ExperimentConfig config;
  config.avg_lifetime =
      hours(options.tl_hours > 0 ? options.tl_hours
                                 : default_lifetime_hours(*trace));
  config.avg_data_size = megabits(options.size_mb);
  config.zipf_exponent = options.zipf;
  config.ncl_count = options.k;
  config.repetitions = options.reps;
  config.seed = options.seed;
  config.dynamic_ncl = options.dynamic_ncl;
  config.sim.maintenance_interval =
      std::max(hours(1), config.avg_lifetime / 7.0);
  config.sim.contact_miss_prob = options.miss_prob;
  config.sim.threads = options.threads;

  if (options.response == "pathweight") {
    config.response_mode = ResponseMode::kPathWeight;
  } else if (options.response == "sigmoid") {
    config.response_mode = ResponseMode::kSigmoid;
  } else if (options.response == "always") {
    config.response_mode = ResponseMode::kAlways;
  } else {
    std::fprintf(stderr, "unknown response mode '%s'\n",
                 options.response.c_str());
    return 2;
  }

  if (options.strategy == "utility") {
    config.strategy = CacheStrategy::kUtilityExchange;
  } else if (options.strategy == "fifo") {
    config.strategy = CacheStrategy::kFifo;
  } else if (options.strategy == "lru") {
    config.strategy = CacheStrategy::kLru;
  } else if (options.strategy == "gds") {
    config.strategy = CacheStrategy::kGds;
  } else {
    std::fprintf(stderr, "unknown strategy '%s'\n", options.strategy.c_str());
    return 2;
  }

  // Config validation (repetitions, K, ...) happens inside the run.
  std::vector<ExperimentResult> results;
  try {
    results = run_comparison(trace, kinds, config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const TraceSummary summary = summarize(*trace);
  if (!options.csv) {
    std::printf("trace %s: %d nodes, %zu contacts, %.1f days; T_L=%s, "
                "s_avg=%.0fMb, K=%d, reps=%d\n\n",
                summary.name.c_str(), summary.devices,
                summary.internal_contacts, summary.duration_days,
                format_duration(config.avg_lifetime).c_str(), options.size_mb,
                options.k, options.reps);
  }

  TextTable table({"scheme", "success_ratio", "delay_hours", "copies_per_item",
                   "queries", "replacement_overhead"});
  for (const ExperimentResult& r : results) {
    table.begin_row();
    table.add_cell(r.scheme);
    table.add_number(r.success_ratio.mean(), 4);
    table.add_number(r.delay_hours.mean(), 2);
    table.add_number(r.copies_per_item.mean(), 2);
    table.add_number(r.queries_issued.mean(), 0);
    table.add_number(r.replacement_overhead.mean(), 2);
  }
  std::printf("%s", options.csv ? table.to_csv().c_str()
                                : table.to_string().c_str());

  if (options.stats) {
    // stderr keeps --csv output machine-readable even with --stats on.
    if (instrument::enabled()) {
      std::fprintf(stderr, "\n%s",
                   instrument::snapshot().to_string().c_str());
    } else {
      std::fprintf(stderr,
                   "\n--stats: instrumentation compiled out "
                   "(DTN_INSTRUMENT=OFF)\n");
    }
  }
  return 0;
}
