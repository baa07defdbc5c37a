// dtnd — the long-running serving daemon, driven in trace-replay mode.
//
// Loads a contact trace, folds a warm-up prefix into the daemon as a batch
// warm start, then replays the remainder through the streaming feed under
// the control of a query script (src/daemon/script.h): `advance <t>` moves
// the replayed clock, query commands interrogate the live path tables in
// between. Every answer is stamped with its snapshot epoch and staleness.
//
//   dtnd --trace FILE [--script FILE] [options]
//   dtnd --synthetic NAME [--script FILE] [options]   (infocom05|infocom06|
//                                                      mitreality|ucsd)
//
// With no --script, dtnd drains the whole feed and prints stats. --audit
// cross-checks every repair batch against a fresh rebuild of every root
// with compute_opportunistic_paths_reference, the path tests' oracle
// (DTN_CHECK aborts on divergence) — the CI daemon-soak job runs
// exactly that. --self-test runs built-in end-to-end determinism and audit
// checks and is registered in ctest.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/script.h"
#include "trace/synthetic.h"
#include "traceio/cache.h"
#include "parse_number.h"

using namespace dtn;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dtnd (--trace FILE | --synthetic NAME) [options]\n"
      "  --trace FILE       contact trace to replay (any supported format)\n"
      "  --synthetic NAME   built-in preset: infocom05|infocom06|\n"
      "                     mitreality|ucsd\n"
      "  --script FILE      query script ('-' = stdin); default: drain+stats\n"
      "  --warm-frac F      trace fraction used as batch warm start [0.5]\n"
      "  --horizon SECS     path horizon T [3600]\n"
      "  --max-hops N       path hop cap [8]\n"
      "  --drift X          relative rate-drift repair threshold [0.2]\n"
      "  --interval SECS    repair batch interval in stream time [3600]\n"
      "  --alpha A          EWMA weight of the newest inter-contact gap\n"
      "  --expiry SECS      decay estimates of silent pairs and drop their\n"
      "                     edges after SECS of stream-time silence\n"
      "                     [0 = rates persist forever]\n"
      "  --threads N        warm-start and repair parallelism\n"
      "                     (0 = all cores) [0]\n"
      "  --audit            check every repair batch vs reference rebuild\n"
      "  --stats            print daemon counters at exit\n"
      "  --json PATH        also write the counters as JSON\n"
      "  --self-test        run built-in end-to-end checks\n");
  std::exit(2);
}

struct Options {
  std::string trace_path;
  std::string synthetic;
  std::string script_path;
  std::string json_path;
  double warm_frac = 0.5;
  daemon::DaemonConfig config;
  bool stats = false;
  bool self_test = false;
};

Options parse_args(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      options.trace_path = value(i);
    } else if (arg == "--synthetic") {
      options.synthetic = value(i);
    } else if (arg == "--script") {
      options.script_path = value(i);
    } else if (arg == "--warm-frac") {
      options.warm_frac = parse_number<double>(arg, value(i));
      if (!(options.warm_frac >= 0.0 && options.warm_frac <= 1.0)) {
        std::fprintf(stderr, "dtnd: --warm-frac must be in [0, 1]\n");
        std::exit(2);
      }
    } else if (arg == "--horizon") {
      options.config.horizon = parse_number<double>(arg, value(i));
    } else if (arg == "--max-hops") {
      options.config.max_hops = parse_number<int>(arg, value(i));
    } else if (arg == "--drift") {
      options.config.drift_threshold = parse_number<double>(arg, value(i));
    } else if (arg == "--interval") {
      options.config.repair_interval = parse_number<double>(arg, value(i));
    } else if (arg == "--alpha") {
      options.config.ewma_alpha = parse_number<double>(arg, value(i));
    } else if (arg == "--expiry") {
      options.config.rate_expiry = parse_number<double>(arg, value(i));
    } else if (arg == "--threads") {
      options.config.threads = parse_number<int>(arg, value(i));
    } else if (arg == "--audit") {
      options.config.audit = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--json") {
      options.json_path = value(i);
    } else if (arg == "--self-test") {
      options.self_test = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      std::fprintf(stderr, "dtnd: unknown argument: %s\n", arg.c_str());
      usage();
    }
  }
  return options;
}

ContactTrace load_input(const Options& options) {
  if (!options.trace_path.empty()) {
    return traceio::load_trace_any(options.trace_path);
  }
  const std::optional<SyntheticTraceConfig> preset =
      preset_by_name(options.synthetic);
  if (!preset) {
    std::fprintf(stderr, "dtnd: unknown synthetic preset: %s\n",
                 options.synthetic.c_str());
    usage();
  }
  return generate_trace(*preset);
}

std::string stats_json(const daemon::Daemon& daemon) {
  const daemon::Daemon::Stats& s = daemon.stats();
  std::ostringstream out;
  out << "{\n"
      << "  \"epoch\": " << daemon.snapshot()->epoch << ",\n"
      << "  \"contacts_ingested\": " << s.contacts_ingested << ",\n"
      << "  \"repair_batches\": " << s.repair_batches << ",\n"
      << "  \"edge_updates\": " << s.edge_updates << ",\n"
      << "  \"roots_repaired\": " << s.roots_repaired << ",\n"
      << "  \"roots_local\": " << s.roots_local << ",\n"
      << "  \"roots_local_faster\": " << s.roots_local_faster << ",\n"
      << "  \"roots_grown\": " << s.roots_grown << ",\n"
      << "  \"nodes_resettled\": " << s.nodes_resettled << ",\n"
      << "  \"full_rebuilds\": " << s.full_rebuilds << ",\n"
      << "  \"audit_rebuilds\": " << s.audit_rebuilds << ",\n"
      << "  \"snapshots_published\": " << s.snapshots_published << "\n"
      << "}\n";
  return out.str();
}

void print_stats(const daemon::Daemon& daemon) {
  const daemon::Daemon::Stats& s = daemon.stats();
  std::printf(
      "daemon: epoch %llu, %llu contacts, %llu batches (%llu full), "
      "%llu edge updates, %llu roots repaired (%llu local, %llu of them "
      "after a speed-up, %llu grown), %llu audits\n",
      static_cast<unsigned long long>(daemon.snapshot()->epoch),
      static_cast<unsigned long long>(s.contacts_ingested),
      static_cast<unsigned long long>(s.repair_batches),
      static_cast<unsigned long long>(s.full_rebuilds),
      static_cast<unsigned long long>(s.edge_updates),
      static_cast<unsigned long long>(s.roots_repaired),
      static_cast<unsigned long long>(s.roots_local),
      static_cast<unsigned long long>(s.roots_local_faster),
      static_cast<unsigned long long>(s.roots_grown),
      static_cast<unsigned long long>(s.audit_rebuilds));
}

/// Warm prefix / replay suffix split at `warm_frac` (in [0, 1]) of the
/// contact count.
std::size_t warm_split(const ContactTrace& trace, double warm_frac) {
  return static_cast<std::size_t>(warm_frac *
                                  static_cast<double>(trace.size()));
}

int run(const Options& options) {
  const ContactTrace trace = load_input(options);
  if (trace.node_count() < 2) {
    std::fprintf(stderr, "dtnd: trace has fewer than 2 nodes\n");
    return 1;
  }
  // The daemon validates its config; a bad value is a usage error.
  std::optional<daemon::Daemon> constructed;
  try {
    constructed.emplace(trace.node_count(), options.config);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "dtnd: %s\n", error.what());
    return 2;
  }
  daemon::Daemon& daemon = *constructed;

  const std::size_t split = warm_split(trace, options.warm_frac);
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  std::vector<ContactEvent> live(trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split),
                                 trace.events().end());
  if (!warm.empty()) {
    daemon.warm_start(
        ContactTrace(trace.node_count(), std::move(warm), "warm"));
  }
  daemon::ReplayFeed feed(live);

  if (options.script_path.empty()) {
    const std::size_t n = feed.drain(daemon);
    daemon.repair_now();
    std::printf("drained %zu live contacts (after %zu warm)\n", n, split);
  } else {
    std::ifstream file;
    if (options.script_path != "-") {
      file.open(options.script_path);
      if (!file) {
        std::fprintf(stderr, "dtnd: cannot open script: %s\n",
                     options.script_path.c_str());
        return 1;
      }
    }
    std::istream& in = options.script_path == "-" ? std::cin : file;
    const std::string script{std::istreambuf_iterator<char>(in), {}};
    daemon::run_script(daemon, feed, script, std::cout);
  }

  if (options.stats) print_stats(daemon);
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::fprintf(stderr, "dtnd: cannot write json: %s\n",
                   options.json_path.c_str());
      return 1;
    }
    out << stats_json(daemon);
  }
  return 0;
}

// ---- self test ---------------------------------------------------------

#define DTND_CHECK(cond)                                                 \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "dtnd self-test FAILED at %s:%d: %s\n",       \
                   __FILE__, __LINE__, #cond);                           \
      return false;                                                      \
    }                                                                    \
  } while (0)

ContactTrace self_test_trace(std::uint64_t seed) {
  SyntheticTraceConfig config;
  config.node_count = 24;
  config.duration = days(2.0);
  config.target_total_contacts = 6000.0;
  config.seed = seed;
  return generate_trace(config);
}

std::string replay_output(const ContactTrace& trace,
                          const daemon::DaemonConfig& config,
                          const std::string& script_text) {
  daemon::Daemon daemon(trace.node_count(), config);
  const std::size_t split = trace.size() / 2;
  std::vector<ContactEvent> warm(trace.events().begin(),
                                 trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split));
  std::vector<ContactEvent> live(trace.events().begin() +
                                     static_cast<std::ptrdiff_t>(split),
                                 trace.events().end());
  daemon.warm_start(ContactTrace(trace.node_count(), std::move(warm), "warm"));
  daemon::ReplayFeed feed(live);
  std::ostringstream out;
  daemon::run_script(daemon, feed, script_text, out);
  return out.str();
}

bool self_test() {
  const ContactTrace trace = self_test_trace(17);
  const Time mid = trace.start_time() + trace.duration() * 0.75;
  std::ostringstream script;
  script << "advance " << mid << "\n"
         << "repair\nncl 4\nweight 0 5 1800\nweight 3 3 60\nplace 2 3\n"
         << "drain\nrepair\nncl 4\nweight 0 5 1800\nstats\n";

  daemon::DaemonConfig config;
  config.horizon = hours(1.0);
  config.repair_interval = hours(2.0);
  config.threads = 1;
  config.audit = true;  // every batch cross-checked against the reference

  // Byte-identical output across runs and thread counts.
  const std::string serial = replay_output(trace, config, script.str());
  DTND_CHECK(!serial.empty());
  const std::string again = replay_output(trace, config, script.str());
  DTND_CHECK(serial == again);
  daemon::DaemonConfig threaded = config;
  threaded.threads = 0;  // all cores
  DTND_CHECK(replay_output(trace, threaded, script.str()) == serial);

  // Distinct drift thresholds still audit clean (audit DTN_CHECK-aborts
  // on divergence inside replay_output) and still answer every query.
  // Tables may legitimately differ between thresholds — each tolerates a
  // different residual drift — so only the audit, not cross-threshold
  // equality, is checked here; daemon_test covers the equivalence matrix.
  for (const double drift : {0.01, 0.5}) {
    daemon::DaemonConfig variant = config;
    variant.drift_threshold = drift;
    DTND_CHECK(!replay_output(trace, variant, script.str()).empty());
  }

  // Estimator expiry: silent pairs decay and their edges drop, and every
  // audited batch still matches a from-scratch reference rebuild of the
  // post-removal graph. Determinism must hold across thread counts too.
  daemon::DaemonConfig expiring = config;
  expiring.rate_expiry = hours(6.0);
  const std::string expired = replay_output(trace, expiring, script.str());
  DTND_CHECK(!expired.empty());
  DTND_CHECK(replay_output(trace, expiring, script.str()) == expired);
  daemon::DaemonConfig expiring_threaded = expiring;
  expiring_threaded.threads = 0;
  DTND_CHECK(replay_output(trace, expiring_threaded, script.str()) == expired);

  std::printf("dtnd self-test OK\n");
  return true;
}

#undef DTND_CHECK

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  if (options.self_test) return self_test() ? 0 : 1;
  if (options.trace_path.empty() == options.synthetic.empty()) usage();
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dtnd: %s\n", error.what());
    return 1;
  }
}
