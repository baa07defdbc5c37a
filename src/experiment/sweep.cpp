#include "experiment/sweep.h"

#include <mutex>
#include <sstream>

#include "common/instrument.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace dtn {

std::vector<SweepRow> run_sweep(
    const ContactTrace& trace, const SweepConfig& config,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  const std::vector<Time> lifetimes =
      config.lifetimes.empty() ? std::vector<Time>{config.base.avg_lifetime}
                               : config.lifetimes;
  const std::vector<Bytes> sizes =
      config.data_sizes.empty() ? std::vector<Bytes>{config.base.avg_data_size}
                                : config.data_sizes;
  const std::vector<int> ks = config.ncl_counts.empty()
                                  ? std::vector<int>{config.base.ncl_count}
                                  : config.ncl_counts;

  // Enumerate the full grid up front so every cell knows its index; the
  // index both addresses the row slot and derives the cell's RNG seed.
  struct Cell {
    SchemeKind scheme;
    Time lifetime;
    Bytes size;
    int k;
  };
  std::vector<Cell> cells;
  cells.reserve(config.schemes.size() * lifetimes.size() * sizes.size() *
                ks.size());
  for (int k : ks) {
    for (Time lifetime : lifetimes) {
      for (Bytes size : sizes) {
        for (SchemeKind scheme : config.schemes) {
          cells.push_back({scheme, lifetime, size, k});
        }
      }
    }
  }

  const std::size_t total = cells.size();
  std::vector<SweepRow> rows(total);
  std::mutex progress_mutex;
  std::size_t done = 0;
  DTN_SCOPED_TIMER(kSweep);

  // The swept axes (scheme, lifetime, size, K) never touch the warm-up
  // graph or the horizon calibration, so those are computed once here and
  // shared read-only by every cell.
  const WarmupContext warmup = make_warmup_context(trace, config.base);

  parallel_for(config.threads, total, [&](std::size_t index) {
    const Cell& c = cells[index];
    ExperimentConfig cell = config.base;
    cell.avg_lifetime = c.lifetime;
    cell.avg_data_size = c.size;
    cell.ncl_count = c.k;
    // Seed as a pure function of (base seed, grid index): cells never share
    // an RNG stream, so the schedule cannot leak into the results.
    cell.seed = derive_seed(config.base.seed, index);
    const ExperimentResult r = run_experiment(trace, c.scheme, cell, &warmup);

    SweepRow row;
    row.scheme = r.scheme;
    row.avg_lifetime = c.lifetime;
    row.avg_data_size = c.size;
    row.ncl_count = c.k;
    row.success_ratio = r.success_ratio.mean();
    row.delay_hours = r.delay_hours.mean();
    row.copies_per_item = r.copies_per_item.mean();
    row.replacement_overhead = r.replacement_overhead.mean();
    row.queries = r.queries_issued.mean();
    rows[index] = std::move(row);
    DTN_COUNT(kSweepCells);

    if (progress) {
      // The counter is incremented under the same mutex that serializes the
      // callback, so observers see done = 1, 2, .., total in order.
      std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++done, total);
    }
  });
  return rows;
}

std::string sweep_to_csv(const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  out << "scheme,lifetime_hours,size_mb,k,success_ratio,delay_hours,"
         "copies_per_item,replacement_overhead,queries\n";
  out.precision(6);
  for (const auto& row : rows) {
    out << row.scheme << ',' << row.avg_lifetime / 3600.0 << ','
        << static_cast<double>(row.avg_data_size) * 8.0 / 1e6 << ','
        << row.ncl_count << ',' << row.success_ratio << ',' << row.delay_hours
        << ',' << row.copies_per_item << ',' << row.replacement_overhead << ','
        << row.queries << '\n';
  }
  return out.str();
}

}  // namespace dtn
