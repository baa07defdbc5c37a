#include "common/instrument.h"

#include <array>

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
    "trace_cache_hits",
    "trace_cache_misses",
    "path_scratch_reuses",
    "path_bytes_not_allocated",
    "parent_chain_walks",
    "contact_workspace_reuses",
    "bundle_pool_hits",
    "sim_bytes_not_allocated",
    "daemon_contacts_ingested",
    "daemon_edge_updates",
    "daemon_roots_repaired",
    "daemon_snapshots_published",
    "daemon_audit_rebuilds",
    "daemon_queries",
    "dijkstra_pruned",
    "sparse_landmark_tables",
    "peak_rss_bytes",
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
    "sparse_metrics",
};

struct Registry {
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  std::array<std::atomic<std::uint64_t>, kTimerCount> timer_nanos{};
  std::array<std::atomic<std::uint64_t>, kTimerCount> timer_calls{};
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* timer_name(Timer t) {
  return kTimerNames[static_cast<std::size_t>(t)];
}

void add(Counter c, std::uint64_t n) {
  registry().counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

void add_time(Timer t, std::uint64_t nanos) {
  auto& r = registry();
  r.timer_nanos[static_cast<std::size_t>(t)].fetch_add(
      nanos, std::memory_order_relaxed);
  r.timer_calls[static_cast<std::size_t>(t)].fetch_add(
      1, std::memory_order_relaxed);
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
  const Registry& r = registry();
  StageStats stats;
  stats.counters.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    stats.counters.push_back(
        {kCounterNames[i], r.counters[i].load(std::memory_order_relaxed)});
  }
  stats.timers.reserve(kTimerCount);
  for (std::size_t i = 0; i < kTimerCount; ++i) {
    stats.timers.push_back(
        {kTimerNames[i], r.timer_calls[i].load(std::memory_order_relaxed),
         r.timer_nanos[i].load(std::memory_order_relaxed)});
  }
  return stats;
}

void reset() {
  Registry& r = registry();
  for (auto& c : r.counters) c.store(0, std::memory_order_relaxed);
  for (auto& t : r.timer_nanos) t.store(0, std::memory_order_relaxed);
  for (auto& t : r.timer_calls) t.store(0, std::memory_order_relaxed);
}

}  // namespace dtn::instrument
