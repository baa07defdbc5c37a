// The experiment grid behind the golden metrics CSVs: every (K, T_L,
// scheme) cell over one trace, in that nesting order, each run by
// run_experiment on one shared warm-up context and seeded by
// derive_seed(base.seed, cell index). The cells keep base's data size.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "experiment/experiment.h"

namespace dtn {

struct GridCell {
  ExperimentConfig config;
  ExperimentResult result;
};

inline std::vector<GridCell> run_grid(const ContactTrace& trace,
                                      const ExperimentConfig& base,
                                      const std::vector<int>& ncl_counts,
                                      const std::vector<Time>& lifetimes,
                                      const std::vector<SchemeKind>& schemes) {
  const WarmupContext warmup = make_warmup_context(trace, base);
  std::vector<GridCell> cells;
  for (int k : ncl_counts) {
    for (Time lifetime : lifetimes) {
      for (SchemeKind scheme : schemes) {
        GridCell cell{base, {}};
        cell.config.ncl_count = k;
        cell.config.avg_lifetime = lifetime;
        cell.config.seed = derive_seed(base.seed, cells.size());
        cell.result = run_experiment(trace, scheme, cell.config, &warmup);
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

/// One CSV line per cell, in grid order, after the fixtures' header.
inline std::string grid_csv(const std::vector<GridCell>& cells) {
  std::ostringstream out;
  out << "scheme,lifetime_hours,size_mb,k,success_ratio,delay_hours,"
         "copies_per_item,replacement_overhead,queries\n";
  out.precision(6);
  for (const GridCell& cell : cells) {
    const ExperimentConfig& c = cell.config;
    const ExperimentResult& r = cell.result;
    out << r.scheme << ',' << c.avg_lifetime / 3600.0 << ','
        << static_cast<double>(c.avg_data_size) * 8.0 / 1e6 << ','
        << c.ncl_count << ',' << r.success_ratio.mean() << ','
        << r.delay_hours.mean() << ',' << r.copies_per_item.mean() << ','
        << r.replacement_overhead.mean() << ',' << r.queries_issued.mean()
        << '\n';
  }
  return out.str();
}

}  // namespace dtn
