// Declarative parameter sweeps: the cross product of lifetimes, data sizes,
// NCL counts and schemes over one trace, with CSV export — the batch-mode
// complement to the per-figure benches.
//
// Cells are independent experiments, so the grid runs on the shared thread
// pool. Determinism contract: every cell's RNG seed is derived from the
// base seed and the cell's grid index (never from the draw order of a
// shared stream), rows are emitted in grid order, and `sweep_to_csv` output
// is therefore byte-identical for every thread count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "experiment/experiment.h"

namespace dtn {

struct SweepConfig {
  /// Base configuration; each axis below overrides one field per cell.
  ExperimentConfig base;

  std::vector<SchemeKind> schemes{SchemeKind::kNclCache};
  std::vector<Time> lifetimes;       ///< empty = keep base.avg_lifetime
  std::vector<Bytes> data_sizes;     ///< empty = keep base.avg_data_size
  std::vector<int> ncl_counts;       ///< empty = keep base.ncl_count

  /// Cells run concurrently on this many threads (resolve_threads
  /// semantics: 0 = hardware_concurrency, 1 = the legacy serial path).
  /// Purely a resource knob — results are identical for every value.
  int threads = 0;
};

/// One sweep cell's outcome, flattened for tabulation.
struct SweepRow {
  std::string scheme;
  Time avg_lifetime = 0.0;
  Bytes avg_data_size = 0;
  int ncl_count = 0;
  double success_ratio = 0.0;
  double delay_hours = 0.0;
  double copies_per_item = 0.0;
  double replacement_overhead = 0.0;
  double queries = 0.0;
};

/// Runs the full cross product; rows come back in grid order (the same
/// order the serial loops produced) regardless of completion order.
///
/// `progress` (optional) is called once per completed cell with
/// (done, total). Contract: invocations are serialized under a mutex,
/// `done` is monotonically non-decreasing (in fact exactly 1, 2, ..,
/// total), and the final call carries done == total — even when cells
/// finish out of order on the pool. `done` counts completed cells, not
/// which cell completed.
std::vector<SweepRow> run_sweep(
    const ContactTrace& trace, const SweepConfig& config,
    const std::function<void(std::size_t, std::size_t)>& progress = {});

/// CSV rendering (header + one line per row).
std::string sweep_to_csv(const std::vector<SweepRow>& rows);

}  // namespace dtn
