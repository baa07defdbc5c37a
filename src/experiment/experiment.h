// End-to-end experiment harness reproducing the paper's evaluation setup
// (Sec. VI-A): the first half of the trace is the warm-up period used for
// rate accumulation and NCL selection; data and queries are generated over
// the second half; metrics are averaged over repeated runs with different
// workload seeds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/ncl_scheme.h"
#include "common/stats.h"
#include "graph/ncl.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace dtn {

enum class SchemeKind {
  kNclCache,
  kNoCache,
  kRandomCache,
  kCacheData,
  kBundleCache,
};

std::string scheme_kind_name(SchemeKind kind);

struct ExperimentConfig {
  // Workload (paper defaults).
  Time avg_lifetime = weeks(1);            ///< T_L
  Bytes avg_data_size = megabits(100);     ///< s_avg
  double generation_prob = 0.2;            ///< p_G
  double zipf_exponent = 1.0;              ///< s
  double query_constraint_factor = 0.5;    ///< T_q = factor * T_L

  // Node buffers: uniform in [buffer_min, buffer_max] (paper: 200-600 Mb).
  Bytes buffer_min = megabits(200);
  Bytes buffer_max = megabits(600);

  // NCL caching parameters.
  int ncl_count = 8;  ///< K
  CacheStrategy strategy = CacheStrategy::kUtilityExchange;
  ResponseMode response_mode = ResponseMode::kPathWeight;
  bool enable_replacement = true;
  bool dynamic_ncl = false;
  SigmoidResponse sigmoid;  ///< parameters for the sigmoid variant

  // Simulation substrate. When `auto_horizon` is set the path-weight time
  // budget T is calibrated from the warm-up contact graph so the NCL metric
  // differentiates (the paper's adaptive choice of T, Sec. IV-B: a median
  // metric of 0.3), overriding sim.path_horizon.
  SimConfig sim;
  bool auto_horizon = true;

  // Repetitions with different workload/buffer seeds.
  int repetitions = 3;
  std::uint64_t seed = 2026;
};

/// Aggregated outcome of one (trace, scheme, config) cell, over repetitions.
struct ExperimentResult {
  std::string scheme;
  RunningStats success_ratio;
  RunningStats delay_hours;            ///< mean access delay per run, hours
  RunningStats copies_per_item;        ///< caching overhead
  RunningStats replacement_overhead;   ///< replaced items per data item
  RunningStats queries_issued;
  RunningStats queries_satisfied;
  RunningStats gigabytes_transferred;
  RunningStats duplicate_deliveries;
};

/// Contact graph estimated from the warm-up half of the trace, over the
/// pairs seen at least kMinContactsForRate times. No field of `config`
/// changes it; the parameter stays because perfbench/harness.cpp passes it.
ContactGraph warmup_graph(const ContactTrace& trace,
                          const ExperimentConfig& config);

/// The path-weight horizon actually used: sim.path_horizon, or the
/// calibrated value when auto_horizon is set.
Time effective_horizon(const ContactGraph& graph,
                       const ExperimentConfig& config);

/// Warm-up products that depend only on the trace and the substrate
/// parameters (max_hops, auto_horizon, path_horizon, ...), not on the swept
/// workload axes (lifetime, data size, K, scheme). A figure or comparison
/// computes this once and every cell reuses it instead of re-estimating the
/// same graph and re-calibrating the same horizon.
struct WarmupContext {
  ContactGraph graph;
  Time horizon = 0.0;
};

WarmupContext make_warmup_context(const ContactTrace& trace,
                                  const ExperimentConfig& config);

/// Selects NCLs from the warm-up half of the trace (utility for benches
/// and examples that want the selection itself).
NclSelection warmup_ncl_selection(const ContactTrace& trace,
                                  const ExperimentConfig& config);

/// Draws the per-node buffer capacities for one repetition.
std::vector<Bytes> draw_buffer_capacities(const ExperimentConfig& config,
                                          NodeId node_count,
                                          std::uint64_t seed);

/// Builds a scheme instance (NCL selection already done by the caller for
/// kNclCache; pass the warm-up selection).
std::unique_ptr<Scheme> make_scheme(SchemeKind kind,
                                    const ExperimentConfig& config,
                                    const NclSelection& ncls,
                                    std::vector<Bytes> buffers);

/// Runs the full experiment cell: warm-up split, NCL selection, repeated
/// simulation, aggregation. When `warmup` is non-null it must have been
/// built by make_warmup_context for the same trace and the same substrate
/// fields of `config`; the cell then skips graph estimation and horizon
/// calibration. Passing nullptr computes a private context — results are
/// identical either way.
ExperimentResult run_experiment(const ContactTrace& trace, SchemeKind kind,
                                const ExperimentConfig& config,
                                const WarmupContext* warmup = nullptr);

/// Runs several schemes on the same trace and identical workloads. The
/// warm-up context, the NCL selection and each repetition's workload,
/// buffers and per-tick path tables are computed once and shared across
/// schemes; the (repetition x scheme) cells replay on the thread pool.
/// Results equal run_experiment's for each kind, at every thread count.
/// `warmup` is as in run_experiment: one context serves a workload sweep.
std::vector<ExperimentResult> run_comparison(
    const ContactTrace& trace, const std::vector<SchemeKind>& kinds,
    const ExperimentConfig& config, const WarmupContext* warmup = nullptr);

/// Shared-trace form for drivers that load once and fan out (dtnsim, the
/// repository benchmark): same results, no copy of the trace. A null trace
/// throws std::invalid_argument.
std::vector<ExperimentResult> run_comparison(
    const std::shared_ptr<const ContactTrace>& trace,
    const std::vector<SchemeKind>& kinds, const ExperimentConfig& config);

}  // namespace dtn
