// Measurement program of the repository benchmark. run.py builds and drives
// it; README.md in this directory explains the workloads and metrics.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR
//
// Inputs are generated from --seed, written as CSV under DIR/inputs and
// loaded back through traceio, so the measured program sees only files.
// --trace 0 measures with tracing off; the simulator workloads call
// run_comparison exactly as dtnsim does. --trace 1 replays the same cell
// single-threaded with a span around every layer call, writes the Chrome
// trace to DIR/traces and reports per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// digest_units, metrics (name -> value) and outputs, the canonical result
// text run.py digests. Every line before it is for people.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/instrument.h"
#include "common/rng.h"
#include "daemon/daemon.h"
#include "experiment/experiment.h"
#include "graph/all_pairs.h"
#include "graph/ncl.h"
#include "latency.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "traceio/cache.h"
#include "tracer.h"
#include "workload/workload.h"

using namespace dtn;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SelfTime;
using perfbench::Span;
using perfbench::SpanKind;
using perfbench::Tracer;

namespace {

// Untraced simulator runs use the core count of the 4-core reference host.
// Results are bit-identical for every thread count.
constexpr int kSimThreads = 4;
// Set-up is sampled again before every timed operation, so its median
// samples the machine over the whole run. A sample repeats the set-up until
// it has run this long: one MIT trace load (about 30 ms) or daemon warm
// start (about 7 ms) is too short to time steadily on its own.
constexpr std::int64_t kMinSetupSampleNs = 100'000'000;
// Each timed operation runs at least this often, however short --seconds.
// One more round runs first and is dropped: it warms the thread pool, the
// allocator and the caches.
constexpr std::size_t kMinTimed = 3;
// Two open-loop readers at a fixed rate far below what one reader thread
// answers (over 10^5 queries/s on the reference host), so the daemon
// serves queries beside the replay without ever being saturated.
constexpr int kReaders = 2;
constexpr double kReaderQueriesPerSecond = 1000.0;
constexpr int kQueryK = 8;
constexpr Time kQueryBudget = hours(0.5);
// A reader sleeps until this close to a due time and then spins, so each
// query leaves on time without a core burnt between queries.
constexpr std::int64_t kSpinNs = 200'000;

constexpr std::array<SchemeKind, 5> kSchemes = {
    SchemeKind::kNclCache, SchemeKind::kNoCache, SchemeKind::kRandomCache,
    SchemeKind::kCacheData, SchemeKind::kBundleCache};

const char* short_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNclCache: return "ncl";
    case SchemeKind::kNoCache: return "nocache";
    case SchemeKind::kRandomCache: return "random";
    case SchemeKind::kCacheData: return "cachedata";
    case SchemeKind::kBundleCache: return "bundle";
  }
  return "?";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::filesystem::path work_dir = ".bench_build";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "mit_fig10_all|dense41_contact|mit_dtnd_replay --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.traced = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) usage();
  if (options.workload != "mit_fig10_all" &&
      options.workload != "dense41_contact" &&
      options.workload != "mit_dtnd_replay") {
    usage();
  }
  return options;
}

/// An independent seed for one input of the workload (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Peak resident set of this program (VmHWM). getrusage's ru_maxrss would
/// also count the process image the harness was exec'd from, such as the
/// Python interpreter of run.py.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One set-up sample: set-up calls timed one by one until they add up to
/// kMinSetupSampleNs, reported as their mean.
class SetupSample {
 public:
  template <typename Fn>
  void time(Fn&& setup) {
    const std::int64_t t0 = now_ns();
    setup();
    spent_ns_ += now_ns() - t0;
    ++calls_;
  }
  bool full() const { return spent_ns_ >= kMinSetupSampleNs; }
  int calls() const { return calls_; }
  double mean_s() const {
    return static_cast<double>(spent_ns_) / 1e9 / calls_;
  }

 private:
  std::int64_t spent_ns_ = 0;
  int calls_ = 0;
};

/// What one harness run found: operation counts, checks and metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Operations whose outputs the digest in run.py covers.
  std::uint64_t digest_units = 0;
  std::string outputs;
  std::vector<std::pair<std::string, double>> metrics;

  void check(bool ok, const std::string& what, std::uint64_t operations) {
    if (ok) return;
    correct = false;
    failed += operations;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }

  void metric(const std::string& name, double value) {
    check(std::isfinite(value), name + " is not finite", 0);
    metrics.emplace_back(name, std::isfinite(value) ? value : 0.0);
  }

  void print_json() const {
    std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"digest_units\":" + std::to_string(digest_units) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[40];
      std::snprintf(value, sizeof value, "%.17g", metrics[i].second);
      out += (i == 0 ? "\"" : ",\"") +
             perfbench::json_escape(metrics[i].first) + "\":" + value;
    }
    out += "},\"outputs\":\"" + perfbench::json_escape(outputs) + "\"}";
    std::printf("%s\n", out.c_str());
  }
};

// ---- inputs ------------------------------------------------------------

/// The synthetic trace a workload runs on: the MIT Reality preset cut to
/// 60 days (about 27.9k contacts), or bench_engine's dense 41-node, 6-day
/// trace (about 147k contacts). Like the paper's traces, each is one fixed
/// data set; the seed draws what runs on it (data items, queries, buffers,
/// reader queries), which keeps the work per run alike across seeds.
SyntheticTraceConfig trace_config(const Options& options) {
  if (options.workload == "dense41_contact") {
    SyntheticTraceConfig config;
    config.name = "dense41";
    config.node_count = 41;
    config.duration = days(6);
    config.target_total_contacts = 41.0 * 3600.0;
    config.seed = 23;
    return config;
  }
  return mit_reality_preset().with_duration(days(60));
}

/// Generates the workload's trace, writes it as CSV and returns the path.
std::filesystem::path write_input(const Options& options) {
  const SyntheticTraceConfig config = trace_config(options);
  const std::filesystem::path dir = options.work_dir / "inputs";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (config.name + "-" + std::to_string(options.seed) + ".csv");
  save_trace_csv(generate_trace(config), path.string());
  return path;
}

ContactTrace load_input(const std::filesystem::path& path) {
  // Parse the text every time: each set-up does the same work, and no
  // sidecar cache file is left beside the input.
  traceio::LoadOptions load;
  load.cache = traceio::CachePolicy::kBypass;
  return traceio::load_trace_any(path.string(), load);
}

// ---- simulator workloads ------------------------------------------------

/// The cell a simulator workload runs: all five schemes x 2 repetitions.
ExperimentConfig cell_config(const Options& options, int threads) {
  ExperimentConfig config;
  if (options.workload == "dense41_contact") {
    // bench_engine's entry-rich cell: small items against large buffers, so
    // caches hold many live entries and the contact protocol dominates.
    // One maintenance tick per run keeps path tables out of the way.
    config.avg_lifetime = hours(18);
    config.avg_data_size = megabits(4);
    config.generation_prob = 0.8;
    config.buffer_min = megabits(300);
    config.buffer_max = megabits(600);
    config.ncl_count = 4;
    config.auto_horizon = false;
    config.sim.path_horizon = hours(1);
    config.sim.maintenance_interval = days(6);
  } else {
    // dtnsim --trace mitreality --scheme all: T_L = 1 week, s_avg = 100 Mb,
    // K = 8, path-weight response and utility replacement (the
    // ExperimentConfig defaults), one maintenance tick per T_L / 7.
    config.avg_lifetime = weeks(1);
    config.sim.maintenance_interval =
        std::max(hours(1), config.avg_lifetime / 7.0);
  }
  config.repetitions = 2;
  config.sim.threads = threads;
  config.seed = derive(options.seed, 0xCE11);
  return config;
}

std::uint64_t cells_per_comparison(const ExperimentConfig& config) {
  return kSchemes.size() * static_cast<std::uint64_t>(config.repetitions);
}

/// Every aggregated statistic at full precision: the text run.py digests,
/// and what the traced replay must reproduce bit for bit.
std::string canonical(const std::vector<ExperimentResult>& results) {
  std::string out;
  for (const ExperimentResult& r : results) {
    out += "scheme " + r.scheme + "\n";
    const std::pair<const char*, const RunningStats*> fields[] = {
        {"success_ratio", &r.success_ratio},
        {"delay_hours", &r.delay_hours},
        {"copies_per_item", &r.copies_per_item},
        {"replacement_overhead", &r.replacement_overhead},
        {"queries_issued", &r.queries_issued},
        {"queries_satisfied", &r.queries_satisfied},
        {"gigabytes_transferred", &r.gigabytes_transferred},
        {"duplicate_deliveries", &r.duplicate_deliveries}};
    for (const auto& [name, stats] : fields) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s n=%zu mean=%.17g var=%.17g min=%.17g max=%.17g\n",
                    name, stats->count(), stats->mean(),
                    stats->sample_variance(), stats->min(), stats->max());
      out += line;
    }
  }
  return out;
}

void print_results(const std::vector<ExperimentResult>& results) {
  std::printf("%-12s %13s %11s %15s %8s %20s\n", "scheme", "success_ratio",
              "delay_hours", "copies_per_item", "queries",
              "replacement_overhead");
  for (const ExperimentResult& r : results) {
    std::printf("%-12s %13.4f %11.2f %15.2f %8.0f %20.2f\n", r.scheme.c_str(),
                r.success_ratio.mean(), r.delay_hours.mean(),
                r.copies_per_item.mean(), r.queries_issued.mean(),
                r.replacement_overhead.mean());
  }
}

/// The first invariant the results break, or an empty string. These hold
/// for every seed; the digest in run.py pins the default seed's values.
std::string broken_invariant(const std::vector<ExperimentResult>& results) {
  if (results.size() != kSchemes.size()) return "one result per scheme";
  const RunningStats& issued0 = results.front().queries_issued;
  for (const ExperimentResult& r : results) {
    const RunningStats& issued = r.queries_issued;
    if (issued.count() != issued0.count() || issued.mean() != issued0.mean() ||
        issued.min() != issued0.min() || issued.max() != issued0.max()) {
      return r.scheme + " issued other queries than " + results.front().scheme;
    }
    if (!(issued.min() >= 1.0)) return r.scheme + " issued no queries";
    if (!(r.success_ratio.min() >= 0.0 && r.success_ratio.max() <= 1.0)) {
      return r.scheme + " success ratio outside [0, 1]";
    }
    if (!(r.queries_satisfied.max() <= issued.max() &&
          r.queries_satisfied.mean() <= issued.mean())) {
      return r.scheme + " satisfied more queries than it issued";
    }
  }
  return {};
}

/// Checks one comparison: the invariants on the first, and every later one
/// identical to the first.
void check_comparison(const std::vector<ExperimentResult>& results,
                      std::uint64_t cells, Report& report) {
  report.attempted += cells;
  report.digest_units += cells;
  const std::string text = canonical(results);
  if (report.outputs.empty()) {
    report.outputs = text;
    print_results(results);
    const std::string broken = broken_invariant(results);
    report.check(broken.empty(), broken, cells);
  } else {
    report.check(text == report.outputs,
                 "results differ from this run's first comparison", cells);
  }
}

void run_simulator(const Options& options, Report& report) {
  const std::filesystem::path input = write_input(options);
  const ExperimentConfig config = cell_config(options, kSimThreads);
  const std::vector<SchemeKind> kinds(kSchemes.begin(), kSchemes.end());
  std::vector<double> setup;
  std::vector<double> walls;
  int loads_per_sample = 0;
  const std::int64_t deadline = deadline_after(options.seconds);
  while (walls.size() < kMinTimed + 1 || now_ns() < deadline) {
    std::shared_ptr<const ContactTrace> trace;
    SetupSample sample;
    while (!sample.full()) {
      trace.reset();
      sample.time([&] {
        trace = std::make_shared<const ContactTrace>(load_input(input));
      });
    }
    setup.push_back(sample.mean_s());
    loads_per_sample = sample.calls();
    if (walls.empty()) {
      std::printf("trace %s: %d nodes, %zu contacts\n", trace->name().c_str(),
                  trace->node_count(), trace->size());
    }
    const std::int64_t t0 = now_ns();
    const std::vector<ExperimentResult> results =
        run_comparison(trace, kinds, config);
    walls.push_back(seconds_between(t0, now_ns()));
    check_comparison(results, cells_per_comparison(config), report);
  }
  setup.erase(setup.begin());
  walls.erase(walls.begin());
  std::printf("set-up: %zu samples of %d trace loads, median %.4f s per load; "
              "run_comparison: %zu calls at %d threads, median %.4f s\n",
              setup.size(), loads_per_sample, perfbench::median(setup),
              walls.size(), kSimThreads, perfbench::median(walls));
  report.metric("setup_s", perfbench::median(setup));
  report.metric("wall_s", perfbench::median(walls));
  report.metric("peak_rss_mib", peak_rss_mib());
}

/// Forwards every hook to the scheme make_scheme built, timing each call.
class TimedScheme final : public Scheme {
 public:
  enum Hook { kContact, kQuery, kGenerate, kMaintenance, kHookCount };
  static constexpr std::array<const char*, kHookCount> kHookNames = {
      "contact", "query", "generate", "maintenance"};

  explicit TimedScheme(std::unique_ptr<Scheme> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  SchemeConcurrency concurrency() const override {
    return inner_->concurrency();
  }
  void on_start(SimServices& services) override {
    timed(kMaintenance, [&] { inner_->on_start(services); });
  }
  void on_maintenance(SimServices& services) override {
    timed(kMaintenance, [&] { inner_->on_maintenance(services); });
  }
  void on_data_generated(SimServices& services, const DataItem& item) override {
    timed(kGenerate, [&] { inner_->on_data_generated(services, item); });
  }
  void on_query(SimServices& services, const Query& query) override {
    timed(kQuery, [&] { inner_->on_query(services, query); });
  }
  void on_contact(SimServices& services, NodeId a, NodeId b,
                  LinkBudget& budget) override {
    timed(kContact, [&] { inner_->on_contact(services, a, b, budget); });
  }
  void on_end(SimServices& services) override {
    timed(kMaintenance, [&] { inner_->on_end(services); });
  }
  std::size_t cached_copies(Time now) const override {
    std::size_t copies = 0;
    timed(kMaintenance, [&] { copies = inner_->cached_copies(now); });
    return copies;
  }
  Bytes cached_bytes(Time now) const override {
    return inner_->cached_bytes(now);
  }

  std::uint64_t calls(int hook) const { return calls_[hook]; }
  std::int64_t nanos(int hook) const { return nanos_[hook]; }

 private:
  template <typename Fn>
  void timed(Hook hook, Fn&& fn) const {
    const std::int64_t t0 = now_ns();
    fn();
    nanos_[hook] += now_ns() - t0;
    ++calls_[hook];
  }

  std::unique_ptr<Scheme> inner_;
  mutable std::array<std::uint64_t, kHookCount> calls_{};
  mutable std::array<std::int64_t, kHookCount> nanos_{};
};

/// Work units of a traced cell, taken from the runs themselves.
struct SimUnits {
  std::uint64_t ticks = 0;
  std::uint64_t contacts = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t ncl_satisfied = 0;
  std::uint64_t ncl_duplicates = 0;
};

/// run_comparison -> run_experiment step by step, serially, with a span
/// around each library call. The fold below is run_experiment's, so the
/// results must equal run_comparison's bit for bit.
std::vector<ExperimentResult> traced_comparison(const ContactTrace& trace,
                                                const ExperimentConfig& config,
                                                Tracer& tracer, int parent,
                                                SimUnits& units) {
  WarmupContext warmup;
  {
    ScopedSpan span(tracer, "graph.warmup_graph", parent);
    warmup.graph = warmup_graph(trace, config);
  }
  {
    ScopedSpan span(tracer, "graph.calibrate_horizon", parent);
    warmup.horizon = effective_horizon(warmup.graph, config);
  }
  const Time warmup_end = trace.start_time() + trace.duration() / 2.0;

  std::vector<ExperimentResult> results;
  for (const SchemeKind kind : kSchemes) {
    const std::string scheme_prefix = std::string("scheme.") + short_name(kind);
    ScopedSpan cell(tracer, std::string("experiment.") + short_name(kind),
                    parent, SpanKind::kGroup);
    ExperimentResult result;
    result.scheme = scheme_kind_name(kind);
    NclSelection ncls;
    {
      ScopedSpan span(tracer, "graph.select_ncls", cell.id());
      ncls = select_ncls(warmup.graph, warmup.horizon, config.ncl_count,
                         config.sim.max_hops, config.sim.threads,
                         config.sim.metric_engine, config.sim.sparse_metric);
    }
    ++units.select_calls;

    for (int rep = 0; rep < config.repetitions; ++rep) {
      const std::uint64_t rep_seed =
          config.seed + 0x9E3779B9ULL * static_cast<std::uint64_t>(rep + 1);
      WorkloadConfig wc;
      wc.start = warmup_end;
      wc.end = trace.end_time();
      wc.avg_lifetime = config.avg_lifetime;
      wc.generation_prob = config.generation_prob;
      wc.avg_size = config.avg_data_size;
      wc.zipf_exponent = config.zipf_exponent;
      wc.query_constraint_factor = config.query_constraint_factor;
      wc.seed = rep_seed;
      const Workload workload = [&] {
        ScopedSpan span(tracer, "workload.generate", cell.id());
        return generate_workload(wc, trace.node_count());
      }();

      std::optional<TimedScheme> scheme;
      {
        ScopedSpan span(tracer, "experiment.make_scheme", cell.id());
        scheme.emplace(make_scheme(
            kind, config, ncls,
            draw_buffer_capacities(config, trace.node_count(),
                                   rep_seed ^ 0xB0FFu)));
      }
      SimConfig sc = config.sim;
      sc.path_horizon = warmup.horizon;
      sc.seed = rep_seed ^ 0x51Au;
      const int run_span = tracer.begin("sim.run", cell.id());
      const RunResult run = run_simulation(trace, workload, *scheme, sc);
      tracer.end(run_span);
      for (int hook = 0; hook < TimedScheme::kHookCount; ++hook) {
        tracer.aggregate(run_span,
                         scheme_prefix + "." + TimedScheme::kHookNames[hook],
                         scheme->calls(hook), scheme->nanos(hook));
      }

      const MetricsCollector& m = run.metrics;
      units.ticks += run.maintenance_ticks;
      units.contacts += run.contacts_processed;
      if (kind == SchemeKind::kNclCache) {
        units.ncl_satisfied += m.queries_satisfied();
        units.ncl_duplicates += m.duplicate_deliveries();
      }
      result.success_ratio.add(m.success_ratio());
      if (m.queries_satisfied() > 0) {
        result.delay_hours.add(m.mean_delay() / 3600.0);
      }
      result.copies_per_item.add(m.mean_copies());
      result.replacement_overhead.add(m.replacement_overhead());
      result.queries_issued.add(static_cast<double>(m.queries_issued()));
      result.queries_satisfied.add(static_cast<double>(m.queries_satisfied()));
      result.gigabytes_transferred.add(
          static_cast<double>(m.bytes_transferred()) / 1e9);
      result.duplicate_deliveries.add(
          static_cast<double>(m.duplicate_deliveries()));
    }
    results.push_back(std::move(result));
  }
  return results;
}

/// One traced replay and what was measured around it.
struct TracedRun {
  Tracer tracer;
  int measured_span = -1;  ///< the part an untraced replay also times
  double cpu_s = 0.0;
  instrument::StageStats counters;
  SimUnits units;
  std::vector<ExperimentResult> results;
};

double total_s(const std::vector<SelfTime>& rows, const std::string& name) {
  double total = 0.0;
  for (const SelfTime& row : rows) {
    if (row.name == name) total += static_cast<double>(row.total_ns) / 1e9;
  }
  return total;
}

double self_s(const std::vector<SelfTime>& rows, const std::string& name) {
  double total = 0.0;
  for (const SelfTime& row : rows) {
    if (row.name == name) total += static_cast<double>(row.self_ns) / 1e9;
  }
  return total;
}

double call_count(const std::vector<SelfTime>& rows, const std::string& name) {
  double total = 0.0;
  for (const SelfTime& row : rows) {
    if (row.name == name) total += static_cast<double>(row.calls);
  }
  return total;
}

double measured_s(const TracedRun& run) {
  return static_cast<double>(run.tracer.duration_ns(run.measured_span)) / 1e9;
}

/// Metrics every traced workload reports, plus the self-time table, the
/// self-time sum check and the Chrome trace file. The tracing overhead
/// compares the medians of the traced and untraced replays.
void report_trace(const Options& options, const TracedRun& run,
                  const std::vector<double>& traced_s,
                  const std::vector<double>& untraced_s, Report& report) {
  const Tracer& tracer = run.tracer;
  const std::vector<SelfTime> rows = tracer.self_times();
  const double wall = static_cast<double>(tracer.duration_ns(0)) / 1e9;
  const double attributed = static_cast<double>(tracer.attributed_ns()) / 1e9;
  const double measured = perfbench::median(traced_s);
  const double untraced_median_s = perfbench::median(untraced_s);

  std::printf("\n%-34s %5s %10s %12s %12s %7s\n", "layer", "track", "calls",
              "total_ms", "self_ms", "self%");
  bool overlap = false;
  for (const SelfTime& row : rows) {
    overlap = overlap || (row.track == 0 && row.self_ns < 0);
    std::printf("%-34s %5d %10llu %12.3f %12.3f %6.1f%%\n", row.name.c_str(),
                row.track, static_cast<unsigned long long>(row.calls),
                static_cast<double>(row.total_ns) / 1e6,
                static_cast<double>(row.self_ns) / 1e6,
                row.track == 0
                    ? 100.0 * static_cast<double>(row.self_ns) / 1e9 / wall
                    : 0.0);
  }
  std::printf("traced wall %.4f s, layer self-times %.4f s (%.2f%%); "
              "tracing overhead %+.2f%% (traced median %.4f s vs untraced "
              "median %.4f s)\n",
              wall, attributed, 100.0 * attributed / wall,
              100.0 * (measured / untraced_median_s - 1.0), measured,
              untraced_median_s);
  report.check(!overlap, "a track-0 span overlaps its parent's other children",
               0);
  report.check(tracer.self_times_add_up(0.05),
               "layer self-times differ from the traced wall time by more "
               "than 5%",
               0);

  const std::filesystem::path dir = options.work_dir / "traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (options.workload + "-" + std::to_string(options.seed) + ".json");
  std::ofstream(path) << tracer.chrome_json(options.workload);
  std::printf("chrome trace: %s\n", path.string().c_str());

  report.metric("traceio.load_s", total_s(rows, "traceio.load"));
  report.metric("process.cpu_s", run.cpu_s);
  report.metric("trace.wall_s", wall);
  report.metric("trace.overhead_ratio", measured / untraced_median_s);
  report.metric("trace.attributed_ratio", attributed / wall);
}

void report_sim_layers(const TracedRun& run, Report& report) {
  const std::vector<SelfTime> rows = run.tracer.self_times();
  const SimUnits& units = run.units;
  report.metric("graph.warmup_graph_s", total_s(rows, "graph.warmup_graph"));
  report.metric("graph.calibrate_horizon_s",
                total_s(rows, "graph.calibrate_horizon"));
  report.metric("graph.select_ncls_s", total_s(rows, "graph.select_ncls"));
  report.metric("graph.select_ncls_calls",
                static_cast<double>(units.select_calls));
  report.metric("workload.generate_s", total_s(rows, "workload.generate"));

  const double run_s = total_s(rows, "sim.run");
  const double engine_self_s = self_s(rows, "sim.run");
  report.metric("sim.run_s", run_s);
  report.metric("sim.engine_self_s", engine_self_s);
  report.metric("sim.ticks", static_cast<double>(units.ticks));
  report.metric("sim.contacts", static_cast<double>(units.contacts));
  report.metric("sim.engine_self_ns_per_tick",
                units.ticks > 0
                    ? engine_self_s * 1e9 / static_cast<double>(units.ticks)
                    : 0.0);

  double contact_s = 0.0;
  for (const SchemeKind kind : kSchemes) {
    const std::string prefix = std::string("scheme.") + short_name(kind) + ".";
    contact_s += total_s(rows, prefix + "contact");
    report.metric(prefix + "contact_s", total_s(rows, prefix + "contact"));
    report.metric(prefix + "contact_calls",
                  call_count(rows, prefix + "contact"));
    report.metric(prefix + "query_s", total_s(rows, prefix + "query"));
    report.metric(prefix + "generate_s", total_s(rows, prefix + "generate"));
    report.metric(prefix + "maintenance_s",
                  total_s(rows, prefix + "maintenance"));
  }

  const std::uint64_t replies = units.ncl_satisfied + units.ncl_duplicates;
  report.metric("cache.useful_reply_ratio",
                replies > 0 ? static_cast<double>(units.ncl_satisfied) /
                                  static_cast<double>(replies)
                            : 0.0);
  if (instrument::enabled()) {
    report.metric("graph.path_tables_built",
                  static_cast<double>(
                      run.counters.counter("path_tables_built")));
    report.metric("graph.dijkstra_relaxations",
                  static_cast<double>(
                      run.counters.counter("dijkstra_relaxations")));
    report.metric("cache.replacement_plans",
                  static_cast<double>(
                      run.counters.counter("replacement_plans")));
  }
  std::printf("cache.useful_reply_ratio = %llu satisfied / (%llu satisfied + "
              "%llu duplicate deliveries), NCL scheme\n",
              static_cast<unsigned long long>(units.ncl_satisfied),
              static_cast<unsigned long long>(units.ncl_satisfied),
              static_cast<unsigned long long>(units.ncl_duplicates));
  std::printf("shares of sim.run (%.4f s, %llu ticks, %llu contacts): engine "
              "self %.1f%%, scheme contact hooks %.1f%%\n",
              run_s, static_cast<unsigned long long>(units.ticks),
              static_cast<unsigned long long>(units.contacts),
              100.0 * engine_self_s / run_s, 100.0 * contact_s / run_s);
}

void run_simulator_traced(const Options& options, Report& report) {
  const std::filesystem::path input = write_input(options);
  const auto trace = std::make_shared<const ContactTrace>(load_input(input));
  // One thread: the spans then nest on one track and self-times add up to
  // the wall time.
  const ExperimentConfig config = cell_config(options, 1);
  const std::vector<SchemeKind> kinds(kSchemes.begin(), kSchemes.end());
  const std::uint64_t cells = cells_per_comparison(config);

  std::vector<double> untraced;
  std::vector<double> traced;
  std::optional<TracedRun> kept;
  const std::int64_t deadline = deadline_after(options.seconds);
  // Untraced and traced replays alternate so that both meet the same
  // machine conditions; the fastest traced replay is the one reported.
  while (traced.size() < 2 || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    const std::vector<ExperimentResult> reference =
        run_comparison(trace, kinds, config);
    untraced.push_back(seconds_between(t0, now_ns()));
    check_comparison(reference, cells, report);

    TracedRun run;
    const instrument::StageStats before = instrument::snapshot();
    const double cpu0 = cpu_seconds();
    const int root = run.tracer.begin("perfbench." + options.workload, -1);
    const ContactTrace loaded = [&] {
      ScopedSpan span(run.tracer, "traceio.load", root);
      return load_input(input);
    }();
    {
      ScopedSpan span(run.tracer, "experiment.run_comparison", root,
                      SpanKind::kGroup);
      run.measured_span = span.id();
      run.results =
          traced_comparison(loaded, config, run.tracer, span.id(), run.units);
    }
    run.tracer.end(root);
    run.cpu_s = cpu_seconds() - cpu0;
    run.counters = instrument::snapshot().delta_since(before);
    traced.push_back(measured_s(run));
    report.attempted += cells;
    report.digest_units += cells;
    report.check(canonical(run.results) == report.outputs,
                 "traced replay differs from run_comparison", cells);
    if (!kept || run.tracer.duration_ns(0) < kept->tracer.duration_ns(0)) {
      kept = std::move(run);
    }
  }
  std::printf("%zu untraced run_comparison calls at 1 thread, %zu traced "
              "replays\n",
              untraced.size(), traced.size());
  report_trace(options, *kept, traced, untraced, report);
  report_sim_layers(*kept, report);
}

// ---- daemon workload -----------------------------------------------------

enum QueryKind { kNclSet, kPathWeight, kPlacementFor, kQueryKinds };
constexpr std::array<const char*, kQueryKinds> kQueryNames = {
    "ncl_set", "path_weight", "placement_for"};

struct ReaderLog {
  std::array<std::vector<perfbench::OpenLoopTiming>, kQueryKinds> timings;
  std::uint64_t bad_answers = 0;
  bool crashed = false;
};

/// Waits for the due time; false when asked to stop first.
bool wait_until(std::int64_t due_ns, const std::stop_token& stop) {
  for (;;) {
    if (stop.stop_requested()) return false;
    const std::int64_t left = due_ns - now_ns();
    if (left <= 0) return true;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
  }
}

/// One open-loop reader: query i is due at schedule.due_ns(i) and is sent
/// then, or as soon as the reader is free again. Answers must come from a
/// published snapshot (epoch >= 1) and be well formed.
void reader_loop(std::stop_token stop, const daemon::Daemon& server,
                 perfbench::OpenLoopSchedule schedule, std::uint64_t seed,
                 ReaderLog& log) {
  try {
    Rng rng(seed);
    const std::int64_t last = server.node_count() - 1;
    for (std::uint64_t i = 0;; ++i) {
      const auto kind = static_cast<QueryKind>(i % kQueryKinds);
      const auto a = static_cast<NodeId>(rng.uniform_int(0, last));
      const auto b = static_cast<NodeId>(rng.uniform_int(0, last));
      const std::int64_t due = schedule.due_ns(i);
      if (!wait_until(due, stop)) return;
      const std::int64_t sent = now_ns();
      bool ok = false;
      switch (kind) {
        case kNclSet: {
          const daemon::NclAnswer answer = server.ncl_set(kQueryK);
          ok = answer.info.epoch >= 1 && !answer.central.empty();
          break;
        }
        case kPathWeight: {
          const daemon::WeightAnswer answer =
              server.path_weight(a, b, kQueryBudget);
          ok = answer.info.epoch >= 1 && answer.weight >= 0.0 &&
               answer.weight <= 1.0;
          break;
        }
        case kPlacementFor: {
          const daemon::PlacementAnswer answer =
              server.placement_for(a, kQueryK);
          ok = answer.info.epoch >= 1 && !answer.ranked.empty() &&
               answer.ranked.size() == answer.weights.size();
          break;
        }
        case kQueryKinds:
          break;
      }
      log.timings[kind].push_back({due, sent, now_ns()});
      if (!ok) ++log.bad_answers;
    }
  } catch (...) {
    log.crashed = true;
  }
}

/// The daemon's input, split as dtnd splits it by default: the first half
/// of the contacts warm-starts the daemon, the rest replays live.
struct DaemonInput {
  ContactTrace warm;
  std::vector<ContactEvent> live;
};

DaemonInput split_input(const ContactTrace& trace) {
  const auto split = static_cast<std::ptrdiff_t>(trace.size() / 2);
  DaemonInput input;
  input.warm = ContactTrace(
      trace.node_count(),
      std::vector<ContactEvent>(trace.events().begin(),
                                trace.events().begin() + split),
      "warm");
  input.live.assign(trace.events().begin() + split, trace.events().end());
  return input;
}

struct Replay {
  double wall_s = 0.0;
  std::vector<double> repair_ms;  ///< traced replays only
  std::int64_t ingest_ns = 0;     ///< ingests that ran no repair batch
  std::uint64_t ingest_calls = 0;
  std::array<ReaderLog, kReaders> readers;
};

/// Replays `live` into a warm-started daemon while kReaders open-loop
/// readers query it. With a tracer every ingest is timed: those that ran a
/// repair batch become daemon.repair spans, the rest fold into
/// daemon.ingest, and the readers' calls fold in on their own tracks.
void replay(daemon::Daemon& server, const std::vector<ContactEvent>& live,
            std::uint64_t seed, Tracer* tracer, int parent, Replay& out) {
  std::vector<std::jthread> readers;
  const perfbench::OpenLoopSchedule schedule{
      now_ns(), 1e9 / kReaderQueriesPerSecond};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(reader_loop, std::cref(server), schedule,
                         derive(seed, 0x8EAD0 + static_cast<unsigned>(r)),
                         std::ref(out.readers[static_cast<std::size_t>(r)]));
  }

  const int span =
      tracer != nullptr
          ? tracer->begin("daemon.replay", parent, SpanKind::kGroup)
          : -1;
  const std::int64_t start = now_ns();
  if (tracer == nullptr) {
    for (const ContactEvent& event : live) server.ingest(event);
    server.repair_now();
  } else {
    const auto timed = [&](auto&& call) {
      const std::uint64_t batches = server.stats().repair_batches;
      const std::int64_t t0 = now_ns();
      call();
      const std::int64_t t1 = now_ns();
      if (server.stats().repair_batches != batches) {
        tracer->record("daemon.repair", span, t0, t1);
        out.repair_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      } else {
        out.ingest_ns += t1 - t0;
        ++out.ingest_calls;
      }
    };
    for (const ContactEvent& event : live) {
      timed([&] { server.ingest(event); });
    }
    timed([&] { server.repair_now(); });
    tracer->aggregate(span, "daemon.ingest", out.ingest_calls, out.ingest_ns);
  }
  out.wall_s = seconds_between(start, now_ns());
  if (tracer != nullptr) tracer->end(span);

  for (std::jthread& reader : readers) reader.request_stop();
  readers.clear();  // joins

  if (tracer != nullptr) {
    for (int r = 0; r < kReaders; ++r) {
      for (int kind = 0; kind < kQueryKinds; ++kind) {
        std::int64_t service_ns = 0;
        const auto& timings =
            out.readers[static_cast<std::size_t>(r)].timings[kind];
        for (const auto& t : timings) service_ns += t.done_ns - t.sent_ns;
        tracer->aggregate(span, std::string("daemon.") + kQueryNames[kind],
                          timings.size(), service_ns, r + 1);
      }
    }
  }
}

/// True when the final snapshot equals a fresh build on its own graph:
/// every settled path weight, and the NCL set.
bool snapshot_matches_fresh_build(const daemon::Daemon& server) {
  const std::shared_ptr<const daemon::Snapshot> snap = server.snapshot();
  const daemon::DaemonConfig& config = server.config();
  const NodeId n = snap->graph.node_count();
  if (!snap->ready() || snap->tables.size() != static_cast<std::size_t>(n)) {
    return false;
  }
  const AllPairsPaths fresh(snap->graph, config.horizon, config.max_hops, 1);
  for (NodeId root = 0; root < n; ++root) {
    const PathTable& table = snap->tables[static_cast<std::size_t>(root)];
    for (NodeId node = 0; node < n; ++node) {
      if (table.weight(node) != fresh.table(root).weight(node)) return false;
    }
  }
  const NclSelection ncls =
      select_ncls(snap->graph, config.horizon, kQueryK, config.max_hops, 1);
  return server.ncl_set(kQueryK).central == ncls.central_nodes;
}

std::string daemon_outputs(const daemon::Daemon& server,
                           const daemon::Daemon::Stats& warm) {
  const daemon::Daemon::Stats& s = server.stats();
  char line[256];
  std::snprintf(line, sizeof line,
                "epoch %llu batches %llu roots %llu edges %llu contacts %llu\n",
                static_cast<unsigned long long>(server.snapshot()->epoch),
                static_cast<unsigned long long>(s.repair_batches -
                                                warm.repair_batches),
                static_cast<unsigned long long>(s.roots_repaired -
                                                warm.roots_repaired),
                static_cast<unsigned long long>(s.edge_updates -
                                                warm.edge_updates),
                static_cast<unsigned long long>(s.contacts_ingested));
  std::string out = line;
  out += "ncl";
  for (const NodeId node : server.ncl_set(kQueryK).central) {
    out += ' ';
    out += std::to_string(node);
  }
  out += "\nmetric";
  for (const double m : server.snapshot()->metric) {
    std::snprintf(line, sizeof line, " %.17g", m);
    out += line;
  }
  return out + "\n";
}

/// Checks one replay: every answer, the final snapshot against a fresh
/// build, and the outputs identical to this run's first replay.
void check_replay(const daemon::Daemon& server,
                  const daemon::Daemon::Stats& warm, const Replay& replayed,
                  Report& report) {
  std::uint64_t queries = 0;
  std::uint64_t bad = 0;
  for (const ReaderLog& log : replayed.readers) {
    for (const auto& timings : log.timings) queries += timings.size();
    bad += log.bad_answers;
    report.check(!log.crashed, "a reader thread failed", 1);
  }
  report.attempted += queries + 1;
  report.digest_units += 1;
  report.check(bad == 0,
               std::to_string(bad) +
                   " answers without a published snapshot or malformed",
               bad);
  report.check(snapshot_matches_fresh_build(server),
               "final snapshot differs from a fresh build on its graph", 1);
  const std::string text = daemon_outputs(server, warm);
  if (report.outputs.empty()) {
    report.outputs = text;
  } else {
    report.check(text == report.outputs,
                 "final snapshot differs from this run's first replay", 1);
  }
}

/// Latency samples pooled over every replay of a run, so that the tails
/// keep the replays that stalled.
struct TailSamples {
  std::vector<double> repair_ms;
  std::array<std::vector<double>, kQueryKinds> latency_us;
  std::vector<double> late_us;

  void add(const Replay& replayed) {
    repair_ms.insert(repair_ms.end(), replayed.repair_ms.begin(),
                     replayed.repair_ms.end());
    for (const ReaderLog& log : replayed.readers) {
      for (int kind = 0; kind < kQueryKinds; ++kind) {
        for (const auto& t : log.timings[kind]) {
          latency_us[kind].push_back(static_cast<double>(t.latency_ns()) / 1e3);
          late_us.push_back(static_cast<double>(t.late_ns()) / 1e3);
        }
      }
    }
  }

  std::vector<double> all_latency_us() const {
    std::vector<double> out;
    for (const auto& samples : latency_us) {
      out.insert(out.end(), samples.begin(), samples.end());
    }
    return out;
  }
};

/// Prints a percentile with its sample count, flagging one that has fewer
/// than ten samples beyond it.
double tail(const std::vector<double>& samples, double q,
            const std::string& name, const char* unit) {
  const double value = perfbench::quantile(samples, q);
  std::printf("%-28s %12.3f %s  (n=%zu, %zu beyond%s)\n", name.c_str(), value,
              unit, samples.size(),
              perfbench::samples_beyond(samples.size(), q),
              perfbench::tail_reportable(samples.size(), q)
                  ? ""
                  : "; fewer than 10, not reportable");
  return value;
}

void run_daemon(const Options& options, Report& report) {
  const ContactTrace trace = load_input(write_input(options));
  const DaemonInput input = split_input(trace);
  // dtnd defaults: 1 h repair interval, drift 0.2, alpha 0.125, one repair
  // thread.
  const daemon::DaemonConfig config;
  std::printf("trace: %d nodes, %zu warm + %zu live contacts\n",
              trace.node_count(), input.warm.size(), input.live.size());

  std::vector<double> setup;
  std::vector<double> walls;
  int warm_starts_per_sample = 0;
  TailSamples tails;
  const std::int64_t deadline = deadline_after(options.seconds);
  while (walls.size() < kMinTimed + 1 || now_ns() < deadline) {
    // The last daemon warm-started is the one replayed.
    std::optional<daemon::Daemon> warmed;
    SetupSample sample;
    while (!sample.full()) {
      warmed.emplace(trace.node_count(), config);
      sample.time([&] { warmed->warm_start(input.warm); });
    }
    setup.push_back(sample.mean_s());
    warm_starts_per_sample = sample.calls();
    daemon::Daemon& server = *warmed;
    const daemon::Daemon::Stats warm = server.stats();
    Replay replayed;
    replay(server, input.live, options.seed, nullptr, -1, replayed);
    walls.push_back(replayed.wall_s);
    check_replay(server, warm, replayed, report);
    if (walls.size() > 1) tails.add(replayed);
  }
  setup.erase(setup.begin());
  walls.erase(walls.begin());
  std::printf("set-up: %zu samples of %d warm starts, median %.4f s per warm "
              "start; replays: %zu, median %.4f s\n",
              setup.size(), warm_starts_per_sample, perfbench::median(setup),
              walls.size(), perfbench::median(walls));
  const std::vector<double> latency = tails.all_latency_us();
  tail(latency, 0.5, "query latency p50", "us");
  tail(latency, 0.99, "query latency p99", "us");
  report.metric("setup_s", perfbench::median(setup));
  report.metric("wall_s", perfbench::median(walls));
  report.metric("peak_rss_mib", peak_rss_mib());
}

void run_daemon_traced(const Options& options, Report& report) {
  const std::filesystem::path path = write_input(options);
  const ContactTrace trace = load_input(path);
  const DaemonInput input = split_input(trace);
  const daemon::DaemonConfig config;
  const NodeId nodes = trace.node_count();

  std::vector<double> untraced;
  std::vector<double> traced_walls;
  std::optional<TracedRun> kept;
  std::int64_t kept_ingest_ns = 0;
  daemon::Daemon::Stats kept_delta;
  TailSamples tails;
  const std::int64_t deadline = deadline_after(options.seconds);
  while (traced_walls.size() < 2 || now_ns() < deadline) {
    {
      daemon::Daemon server(nodes, config);
      server.warm_start(input.warm);
      const daemon::Daemon::Stats warm = server.stats();
      Replay plain;
      replay(server, input.live, options.seed, nullptr, -1, plain);
      untraced.push_back(plain.wall_s);
      check_replay(server, warm, plain, report);
    }

    TracedRun run;
    Replay traced;
    const double cpu0 = cpu_seconds();
    const int root = run.tracer.begin("perfbench." + options.workload, -1);
    const DaemonInput loaded = [&] {
      ScopedSpan span(run.tracer, "traceio.load", root);
      return split_input(load_input(path));
    }();
    daemon::Daemon server(nodes, config);
    {
      ScopedSpan span(run.tracer, "daemon.warm_start", root);
      server.warm_start(loaded.warm);
    }
    const daemon::Daemon::Stats warm = server.stats();
    replay(server, loaded.live, options.seed, &run.tracer, root, traced);
    run.tracer.end(root);
    run.cpu_s = cpu_seconds() - cpu0;
    for (const Span& span : run.tracer.spans()) {
      if (span.name == "daemon.replay") run.measured_span = span.id;
    }
    traced_walls.push_back(measured_s(run));
    check_replay(server, warm, traced, report);
    tails.add(traced);
    if (!kept || run.tracer.duration_ns(0) < kept->tracer.duration_ns(0)) {
      const daemon::Daemon::Stats& s = server.stats();
      kept_delta.repair_batches = s.repair_batches - warm.repair_batches;
      kept_delta.roots_repaired = s.roots_repaired - warm.roots_repaired;
      kept_delta.edge_updates = s.edge_updates - warm.edge_updates;
      kept_ingest_ns = traced.ingest_ns;
      kept = std::move(run);
    }
  }
  std::printf("%zu untraced and %zu traced replays\n", untraced.size(),
              traced_walls.size());
  report_trace(options, *kept, traced_walls, untraced, report);

  const std::vector<SelfTime> rows = kept->tracer.self_times();
  const double batches = static_cast<double>(kept_delta.repair_batches);
  const double roots = static_cast<double>(kept_delta.roots_repaired);
  report.metric("daemon.warm_start_s", total_s(rows, "daemon.warm_start"));
  report.metric("daemon.repair_batches", batches);
  report.metric("daemon.roots_repaired", roots);
  report.metric("daemon.edge_updates",
                static_cast<double>(kept_delta.edge_updates));
  report.metric("daemon.repair_root_ratio",
                batches > 0.0 ? roots / (batches * nodes) : 0.0);
  report.metric("daemon.ingest_self_s",
                static_cast<double>(kept_ingest_ns) / 1e9);

  std::printf("\n%zu repair batches timed over %zu traced replays (%.0f "
              "counted in the fastest), %.1f of %d roots repaired per batch\n",
              tails.repair_ms.size(), traced_walls.size(), batches,
              batches > 0.0 ? roots / batches : 0.0, nodes);
  std::printf("highest reportable repair percentile: p%g\n",
              100.0 * perfbench::highest_reportable(
                          tails.repair_ms.size(),
                          {0.5, 0.9, 0.95, 0.98, 0.99, 0.999}));
  report.metric("daemon.repair_p50_ms",
                tail(tails.repair_ms, 0.5, "repair p50", "ms"));
  report.metric("daemon.repair_p98_ms",
                tail(tails.repair_ms, 0.98, "repair p98", "ms"));
  const std::vector<double> latency = tails.all_latency_us();
  report.metric("daemon.query_p50_us",
                tail(latency, 0.5, "query latency p50", "us"));
  report.metric("daemon.query_p99_us",
                tail(latency, 0.99, "query latency p99", "us"));
  for (int kind = 0; kind < kQueryKinds; ++kind) {
    const std::string name = std::string("daemon.") + kQueryNames[kind];
    report.metric(name + "_p99_us", tail(tails.latency_us[kind], 0.99,
                                         name + " p99", "us"));
  }
  report.metric("loadgen.late_p99_us",
                tail(tails.late_us, 0.99, "loadgen lateness p99", "us"));
  report.metric("loadgen.queries", static_cast<double>(latency.size()));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    std::printf("perfbench %s, seed %llu, %s, %g s, instrumentation %s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.traced ? "traced" : "untraced", options.seconds,
                instrument::enabled() ? "on" : "off");
    Report report;
    const bool simulator = options.workload != "mit_dtnd_replay";
    if (simulator && options.traced) {
      run_simulator_traced(options, report);
    } else if (simulator) {
      run_simulator(options, report);
    } else if (options.traced) {
      run_daemon_traced(options, report);
    } else {
      run_daemon(options, report);
    }
    report.print_json();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
}
