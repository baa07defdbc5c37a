// Lightweight observability: monotonic domain counters and scoped wall-clock
// timers, aggregated into a per-run StageStats report.
//
// The paper's evaluation (Figs. 9-13) is a perf-trajectory story — setup
// cost, caching overhead, NCL-count scaling — so the reproduction measures
// the same hot stages: hypoexponential CDF evaluations by algorithm
// (Eqs. 1-2), opportunistic-Dijkstra relaxations, knapsack DP cells
// (Eq. 7 / Algorithm 1), contacts processed, buffer evictions. Benches
// snapshot the registry around each timed stage and emit the deltas as
// machine-readable JSON (bench/bench_json.h); `tools/bench_compare.py`
// gates regressions on time *per counter unit*, so the counters here are
// the denominator of every perf gate.
//
// Design rules (see DESIGN.md §7):
//  * Observation never feeds back: nothing in the simulator reads a counter
//    or a timer, so instrumentation cannot perturb determinism — ctest
//    output is byte-identical with DTN_INSTRUMENT=ON and OFF.
//  * One slot per thread: each thread counts into its own cache-line-
//    aligned slot, which only it writes. snapshot() sums the live slots
//    and the totals of threads that have exited, so counts made inside
//    parallel_for workers are exact, and no two workers share a counter's
//    cache line (a shared atomic kept the per-root path build from scaling
//    past one thread; DESIGN.md §7).
//  * Zero overhead when off: building with -DDTN_INSTRUMENT=OFF (which
//    defines DTN_INSTRUMENT_OFF) compiles the DTN_COUNT / DTN_SCOPED_TIMER
//    macros to nothing. The registry API below stays available so tools
//    and tests link in both modes; it just never moves.
//
// The clock reads live only inside ScopedTimer (allowlisted in
// tools/lint_allowlist.txt): timing is the one designated consumer of
// nondeterministic time, and its output never reaches simulation state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dtn::instrument {

/// Monotonic domain counters. Names (counter_name) are the stable JSON
/// identifiers — append new enumerators before kCount, never reorder.
enum class Counter : int {
  kHypoexpSingleEvals,          ///< 1-hop exponential CDF evaluations
  kHypoexpErlangEvals,          ///< all-rates-equal Erlang closed form
  kHypoexpClosedFormEvals,      ///< distinct-rates partial fractions
  kHypoexpUniformizationEvals,  ///< near-equal-rates uniformization
  kDijkstraRelaxations,         ///< edges examined by max-probability Dijkstra
  kDijkstraSettled,             ///< nodes settled (popped final)
  kPathTablesBuilt,             ///< compute_opportunistic_paths completions
  kKnapsackSolves,              ///< solve_knapsack calls
  kKnapsackDpCells,             ///< DP inner-loop cell updates
  kReplacementPlans,            ///< plan_replacement calls (Alg. 1 exchanges)
  kReplacementItemsPooled,      ///< items pooled across all exchanges
  kBufferEvictions,             ///< cache entries evicted or dropped
  kContactsProcessed,           ///< contact events handed to a scheme
  kMaintenanceTicks,            ///< maintenance ticks handed to a scheme
  kExperimentRepetitions,       ///< experiment repetitions completed
  kSweepCells,                  ///< sweep grid cells completed
  kTraceContactsDecoded,        ///< contacts decoded by trace readers
  kTraceBytesRead,              ///< bytes read from trace files
  kParentChainWalks,            ///< rate chains materialized via next_hop walk
  kDaemonContactsIngested,      ///< contacts fed into the daemon estimator
  kDaemonEdgeUpdates,           ///< drifted edge rates applied to the graph
  kDaemonRootsRepaired,         ///< path tables rebuilt by incremental repair
  kDaemonSnapshotsPublished,    ///< read-snapshot swaps (epoch increments)
  kDaemonAuditRebuilds,         ///< audit-mode full reference rebuilds
  kDaemonQueries,               ///< daemon queries answered from a snapshot
  kDaemonRootsLocal,            ///< repaired roots re-settled subtree-locally
  kDaemonNodesResettled,        ///< nodes those local repairs re-settled
  kCount
};

/// Wall-time stages. timer_name gives the stable JSON identifiers.
enum class Timer : int {
  kSimulation,        ///< run_simulation, end to end
  kMaintenance,       ///< per tick handed to a scheme (hooks + sampling)
  kContacts,          ///< per contact event handed to the scheme
  kAllPairs,          ///< AllPairsPaths construction; not the simulator's
                      ///< tick tables, whose roots run in its round batches
                      ///< (they count in kDijkstra and kPathTablesBuilt)
  kDijkstra,          ///< one compute_opportunistic_paths call
  kNclMetrics,        ///< ncl_metrics (Eq. 3) over all roots
  kCalibrateHorizon,  ///< adaptive horizon bisection
  kKnapsack,          ///< solve_knapsack (Eq. 7 DP)
  kReplacementPlan,   ///< plan_replacement (Algorithm 1)
  kExperiment,        ///< run_experiment / run_comparison, end to end
  kSweep,             ///< run_sweep over the whole grid
  kTraceLoad,         ///< load_trace_any, end to end (read and parse)
  kDaemonRepair,      ///< one daemon repair batch (drift scan -> publish)
  kCount
};

const char* counter_name(Counter c);
const char* timer_name(Timer t);

/// Adds n to a counter. Safe from any thread: it adds to its own slot.
void add(Counter c, std::uint64_t n);

/// Records one timed interval of `nanos` against a stage timer.
void add_time(Timer t, std::uint64_t nanos);

/// True when the library itself was compiled with instrumentation on —
/// i.e. whether the macros in src/ bump this registry at all.
bool enabled();

/// Point-in-time copy of the registry, plus delta/reporting helpers.
/// Counters and timers appear in enum order, zero entries included, so
/// two snapshots subtract index-by-index.
struct StageStats {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct TimerRow {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
  };

  std::vector<CounterRow> counters;
  std::vector<TimerRow> timers;

  /// Value of a counter by JSON name; 0 when absent.
  std::uint64_t counter(const std::string& name) const;

  /// This snapshot minus an earlier one (per-stage deltas for benches).
  StageStats delta_since(const StageStats& earlier) const;

  /// Human-readable report (dtnsim --stats): non-zero counters, then
  /// timers with call counts and total milliseconds.
  std::string to_string() const;
};

/// Every thread's counts since the last reset(), exited threads included.
StageStats snapshot();

/// Zeroes every counter and timer, for live and exited threads alike
/// (test/bench isolation).
void reset();

/// RAII wall-clock timer. Construct-to-destruct time is charged to the
/// stage; use via DTN_SCOPED_TIMER so DTN_INSTRUMENT=OFF erases the clock
/// reads along with everything else.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer t)
      : timer_(t), start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    add_time(timer_, nanos > 0 ? static_cast<std::uint64_t>(nanos) : 0u);
  }

 private:
  Timer timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dtn::instrument

#if defined(DTN_INSTRUMENT_OFF)

#define DTN_COUNT(counter) ((void)0)
#define DTN_COUNT_N(counter, n) ((void)0)
#define DTN_SCOPED_TIMER(timer) ((void)0)

#else  // instrumentation enabled (the default)

#define DTN_COUNT(counter) \
  ::dtn::instrument::add(::dtn::instrument::Counter::counter, 1)

#define DTN_COUNT_N(counter, n)                            \
  ::dtn::instrument::add(::dtn::instrument::Counter::counter, \
                         static_cast<std::uint64_t>(n))

#define DTN_INSTRUMENT_CONCAT_(a, b) a##b
#define DTN_INSTRUMENT_CONCAT(a, b) DTN_INSTRUMENT_CONCAT_(a, b)

#define DTN_SCOPED_TIMER(timer)                               \
  const ::dtn::instrument::ScopedTimer DTN_INSTRUMENT_CONCAT( \
      dtn_scoped_timer_, __LINE__)(::dtn::instrument::Timer::timer)

#endif  // DTN_INSTRUMENT_OFF
