#include "common/instrument.h"

#include <algorithm>
#include <array>
#include <mutex>

#include "common/table.h"

namespace dtn::instrument {
namespace {

constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kTimerCount = static_cast<std::size_t>(Timer::kCount);

// Keep in enum order; these are the stable JSON identifiers consumed by
// bench_json and tools/bench_compare.py — renaming one is a schema change.
constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "hypoexp_single_evals",
    "hypoexp_erlang_evals",
    "hypoexp_closed_form_evals",
    "hypoexp_uniformization_evals",
    "dijkstra_relaxations",
    "dijkstra_settled",
    "path_tables_built",
    "knapsack_solves",
    "knapsack_dp_cells",
    "replacement_plans",
    "replacement_items_pooled",
    "buffer_evictions",
    "contacts_processed",
    "maintenance_ticks",
    "experiment_repetitions",
    "sweep_cells",
    "trace_contacts_decoded",
    "trace_bytes_read",
    "parent_chain_walks",
    "daemon_contacts_ingested",
    "daemon_edge_updates",
    "daemon_roots_repaired",
    "daemon_snapshots_published",
    "daemon_audit_rebuilds",
    "daemon_queries",
    "daemon_roots_local",
    "daemon_nodes_resettled",
};

constexpr std::array<const char*, kTimerCount> kTimerNames = {
    "simulation",
    "maintenance",
    "contacts",
    "all_pairs",
    "dijkstra",
    "ncl_metrics",
    "calibrate_horizon",
    "knapsack",
    "replacement_plan",
    "experiment",
    "sweep",
    "trace_load",
    "daemon_repair",
};

/// One thread's counters and timers. Only the owning thread writes them
/// (a relaxed load and store, no read-modify-write); snapshot() reads them
/// from any thread. The alignment keeps two threads' slots off one cache
/// line, so the per-root Dijkstra workers never contend on a counter.
struct alignas(64) Slot {
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  std::array<std::atomic<std::uint64_t>, kTimerCount> timer_nanos{};
  std::array<std::atomic<std::uint64_t>, kTimerCount> timer_calls{};
};

/// Plain totals: what exited threads left behind, and the reset() baseline.
struct Totals {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kTimerCount> timer_nanos{};
  std::array<std::uint64_t, kTimerCount> timer_calls{};

  void add(const Slot& slot) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      counters[i] += slot.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kTimerCount; ++i) {
      timer_nanos[i] += slot.timer_nanos[i].load(std::memory_order_relaxed);
      timer_calls[i] += slot.timer_calls[i].load(std::memory_order_relaxed);
    }
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<Slot*> live;  ///< one per thread that has counted and not exited
  Totals exited;            ///< slots of threads that have exited
  Totals baseline;          ///< everything counted before the last reset()

  /// Everything counted so far, reset() or not. Caller holds `mutex`.
  Totals totals_locked() const {
    Totals t = exited;
    for (const Slot* slot : live) t.add(*slot);
    return t;
  }
};

/// Never destroyed: pool workers can exit during static destruction (the
/// global pool is itself a static), and each folds its slot in here.
Registry& registry() {
  static Registry* const instance = new Registry;
  return *instance;
}

/// This thread's slot: registered on the thread's first count, folded into
/// the exited totals when the thread exits.
struct SlotOwner {
  SlotOwner() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(&slot);
  }
  SlotOwner(const SlotOwner&) = delete;
  SlotOwner& operator=(const SlotOwner&) = delete;
  ~SlotOwner() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.exited.add(slot);
    r.live.erase(std::find(r.live.begin(), r.live.end(), &slot));
  }

  Slot slot;
};

// The hot path reads only this trivially initialized pointer; the owner,
// whose destructor does the fold, is constructed on the first count.
thread_local Slot* tls_slot = nullptr;

Slot& this_thread_slot() {
  if (tls_slot == nullptr) {
    thread_local SlotOwner owner;
    tls_slot = &owner.slot;
  }
  return *tls_slot;
}

/// Owner-only increment: no other thread writes this slot, so a relaxed
/// load and store cannot lose an update.
void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* timer_name(Timer t) {
  return kTimerNames[static_cast<std::size_t>(t)];
}

void add(Counter c, std::uint64_t n) {
  bump(this_thread_slot().counters[static_cast<std::size_t>(c)], n);
}

void add_time(Timer t, std::uint64_t nanos) {
  Slot& slot = this_thread_slot();
  bump(slot.timer_nanos[static_cast<std::size_t>(t)], nanos);
  bump(slot.timer_calls[static_cast<std::size_t>(t)], 1);
}

bool enabled() {
#if defined(DTN_INSTRUMENT_OFF)
  return false;
#else
  return true;
#endif
}

std::uint64_t StageStats::counter(const std::string& name) const {
  for (const CounterRow& row : counters) {
    if (row.name == name) return row.value;
  }
  return 0;
}

StageStats StageStats::delta_since(const StageStats& earlier) const {
  StageStats delta = *this;
  for (std::size_t i = 0; i < delta.counters.size(); ++i) {
    if (i < earlier.counters.size()) {
      delta.counters[i].value -= earlier.counters[i].value;
    }
  }
  for (std::size_t i = 0; i < delta.timers.size(); ++i) {
    if (i < earlier.timers.size()) {
      delta.timers[i].calls -= earlier.timers[i].calls;
      delta.timers[i].nanos -= earlier.timers[i].nanos;
    }
  }
  return delta;
}

std::string StageStats::to_string() const {
  std::string out;
  {
    TextTable table({"counter", "value"});
    for (const CounterRow& row : counters) {
      if (row.value == 0) continue;
      table.begin_row();
      table.add_cell(row.name);
      table.add_integer(static_cast<long long>(row.value));
    }
    if (table.row_count() > 0) out += table.to_string();
  }
  {
    TextTable table({"stage", "calls", "total_ms", "ms/call"});
    for (const TimerRow& row : timers) {
      if (row.calls == 0) continue;
      table.begin_row();
      table.add_cell(row.name);
      table.add_integer(static_cast<long long>(row.calls));
      const double total_ms = static_cast<double>(row.nanos) / 1e6;
      table.add_number(total_ms, 3);
      table.add_number(total_ms / static_cast<double>(row.calls), 4);
    }
    if (table.row_count() > 0) {
      if (!out.empty()) out += "\n";
      out += table.to_string();
    }
  }
  if (out.empty()) out = "(no instrumentation samples recorded)\n";
  return out;
}

StageStats snapshot() {
  Registry& r = registry();
  Totals t;
  Totals base;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    t = r.totals_locked();
    base = r.baseline;
  }
  StageStats stats;
  stats.counters.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    stats.counters.push_back(
        {kCounterNames[i], t.counters[i] - base.counters[i]});
  }
  stats.timers.reserve(kTimerCount);
  for (std::size_t i = 0; i < kTimerCount; ++i) {
    stats.timers.push_back({kTimerNames[i],
                            t.timer_calls[i] - base.timer_calls[i],
                            t.timer_nanos[i] - base.timer_nanos[i]});
  }
  return stats;
}

void reset() {
  // Slots belong to their threads, so reset() moves the baseline instead
  // of zeroing them.
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.baseline = r.totals_locked();
}

}  // namespace dtn::instrument
