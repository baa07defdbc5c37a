#include "experiment/experiment.h"

#include <optional>
#include <stdexcept>

#include "common/check.h"
#include "common/instrument.h"
#include "baselines/bundle_cache.h"
#include "baselines/cache_data.h"
#include "baselines/no_cache.h"
#include "baselines/random_cache.h"
#include "cache/ncl_scheme_reference.h"
#include "graph/ncl.h"

namespace dtn {

std::string scheme_kind_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNclCache: return "NCL-Cache";
    case SchemeKind::kNoCache: return "NoCache";
    case SchemeKind::kRandomCache: return "RandomCache";
    case SchemeKind::kCacheData: return "CacheData";
    case SchemeKind::kBundleCache: return "BundleCache";
  }
  return "?";
}

ContactGraph warmup_graph(const ContactTrace& trace,
                          const ExperimentConfig& /*config*/) {
  const Time warmup_end = trace.start_time() + trace.duration() / 2.0;
  return build_contact_graph(trace, warmup_end, kMinContactsForRate);
}

Time effective_horizon(const ContactGraph& graph,
                       const ExperimentConfig& config) {
  if (!config.auto_horizon) return config.sim.path_horizon;
  return calibrate_horizon(graph, 0.3, minutes(1), days(90),
                           config.sim.max_hops, config.sim.threads);
}

WarmupContext make_warmup_context(const ContactTrace& trace,
                                  const ExperimentConfig& config) {
  WarmupContext ctx;
  ctx.graph = warmup_graph(trace, config);
  ctx.horizon = effective_horizon(ctx.graph, config);
  return ctx;
}

NclSelection warmup_ncl_selection(const ContactTrace& trace,
                                  const ExperimentConfig& config) {
  const ContactGraph graph = warmup_graph(trace, config);
  return select_ncls(graph, effective_horizon(graph, config),
                     config.ncl_count, config.sim.max_hops,
                     config.sim.threads);
}

std::vector<Bytes> draw_buffer_capacities(const ExperimentConfig& config,
                                          NodeId node_count,
                                          std::uint64_t seed) {
  if (config.buffer_min <= 0 || config.buffer_max < config.buffer_min) {
    throw std::invalid_argument("invalid buffer capacity range");
  }
  Rng rng(seed);
  std::vector<Bytes> buffers(static_cast<std::size_t>(node_count));
  for (auto& b : buffers) {
    b = rng.uniform_int(config.buffer_min, config.buffer_max);
  }
  return buffers;
}

std::unique_ptr<Scheme> make_scheme(SchemeKind kind,
                                    const ExperimentConfig& config,
                                    const NclSelection& ncls,
                                    std::vector<Bytes> buffers) {
  switch (kind) {
    case SchemeKind::kNclCache: {
      NclSchemeConfig c;
      c.central_nodes = ncls.central_nodes;
      c.buffer_capacity = std::move(buffers);
      c.response_mode = config.response_mode;
      c.sigmoid = config.sigmoid;
      c.strategy = config.strategy;
      c.enable_replacement = config.enable_replacement;
      c.dynamic_ncl = config.dynamic_ncl;
      if (config.sim.sim_engine == SimEngine::kReference) {
        return std::make_unique<NclCachingSchemeReference>(std::move(c));
      }
      return std::make_unique<NclCachingScheme>(std::move(c));
    }
    case SchemeKind::kNoCache: {
      FloodingConfig c;
      c.buffer_capacity = std::move(buffers);
      return std::make_unique<NoCacheScheme>(std::move(c));
    }
    case SchemeKind::kRandomCache: {
      FloodingConfig c;
      c.buffer_capacity = std::move(buffers);
      return std::make_unique<RandomCacheScheme>(std::move(c));
    }
    case SchemeKind::kCacheData: {
      FloodingConfig c;
      c.buffer_capacity = std::move(buffers);
      return std::make_unique<CacheDataScheme>(std::move(c));
    }
    case SchemeKind::kBundleCache: {
      FloodingConfig c;
      c.buffer_capacity = std::move(buffers);
      return std::make_unique<BundleCacheScheme>(std::move(c));
    }
  }
  throw std::logic_error("unknown scheme kind");
}

namespace {

/// Runs every kind over config.repetitions repetitions as the lanes of one
/// simulation: each repetition draws its workload and buffers once, and its
/// schemes share that repetition's contact stream and path tables. Results
/// come back in `kinds` order, each folded in repetition order, so they are
/// bit-identical to running each kind alone at any thread count.
std::vector<ExperimentResult> run_cells(const ContactTrace& trace,
                                        const std::vector<SchemeKind>& kinds,
                                        const ExperimentConfig& config,
                                        const WarmupContext& warmup) {
  if (config.repetitions < 1) throw std::invalid_argument("repetitions >= 1");
  DTN_SCOPED_TIMER(kExperiment);

  const Time warmup_end = trace.start_time() + trace.duration() / 2.0;
  const NclSelection ncls = select_ncls(warmup.graph, warmup.horizon,
                                        config.ncl_count, config.sim.max_hops,
                                        config.sim.threads);

  // Everything a replay touches is built here, on the calling thread.
  // Each repetition derives its own seeds from the rep index.
  const std::size_t reps = static_cast<std::size_t>(config.repetitions);
  std::vector<Workload> workloads;
  workloads.reserve(reps);
  std::vector<std::unique_ptr<Scheme>> schemes;
  schemes.reserve(reps * kinds.size());
  std::vector<SimLane> lanes(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
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
    workloads.push_back(generate_workload(wc, trace.node_count()));

    const std::vector<Bytes> buffers = draw_buffer_capacities(
        config, trace.node_count(), rep_seed ^ 0xB0FFu);
    SimLane& lane = lanes[rep];
    lane.workload = &workloads.back();
    lane.seed = rep_seed ^ 0x51Au;
    for (SchemeKind kind : kinds) {
      schemes.push_back(make_scheme(kind, config, ncls, buffers));
      lane.schemes.push_back(schemes.back().get());
    }
  }

  SimConfig sc = config.sim;
  sc.path_horizon = warmup.horizon;
  const std::vector<std::vector<RunResult>> runs =
      run_simulation(trace, lanes, sc);

  std::vector<ExperimentResult> results(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    ExperimentResult& result = results[k];
    result.scheme = scheme_kind_name(kinds[k]);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const MetricsCollector& m = runs[rep][k].metrics;
      const double success_ratio = m.success_ratio();
      const bool has_delay = m.queries_satisfied() > 0;
      const double delay_hours = has_delay ? m.mean_delay() / 3600.0 : 0.0;
      // Fold only sane repetition outcomes: one NaN here would silently
      // poison every aggregated statistic of the experiment.
      DTN_CHECK_PROB(success_ratio);
      DTN_CHECK_FINITE(delay_hours);
      DTN_CHECK_FINITE(m.mean_copies());
      DTN_CHECK_FINITE(m.replacement_overhead());
      result.success_ratio.add(success_ratio);
      if (has_delay) result.delay_hours.add(delay_hours);
      result.copies_per_item.add(m.mean_copies());
      result.replacement_overhead.add(m.replacement_overhead());
      result.queries_issued.add(static_cast<double>(m.queries_issued()));
      result.queries_satisfied.add(static_cast<double>(m.queries_satisfied()));
      result.gigabytes_transferred.add(
          static_cast<double>(m.bytes_transferred()) / 1e9);
      result.duplicate_deliveries.add(
          static_cast<double>(m.duplicate_deliveries()));
      DTN_COUNT(kExperimentRepetitions);
    }
  }
  return results;
}

}  // namespace

ExperimentResult run_experiment(const ContactTrace& trace, SchemeKind kind,
                                const ExperimentConfig& config,
                                const WarmupContext* warmup) {
  return std::move(run_comparison(trace, {kind}, config, warmup).front());
}

std::vector<ExperimentResult> run_comparison(
    const ContactTrace& trace, const std::vector<SchemeKind>& kinds,
    const ExperimentConfig& config, const WarmupContext* warmup) {
  std::optional<WarmupContext> local;
  if (warmup == nullptr) {
    local.emplace(make_warmup_context(trace, config));
    warmup = &*local;
  }
  if (kinds.empty()) return {};
  return run_cells(trace, kinds, config, *warmup);
}

std::vector<ExperimentResult> run_comparison(
    const std::shared_ptr<const ContactTrace>& trace,
    const std::vector<SchemeKind>& kinds, const ExperimentConfig& config) {
  if (!trace) throw std::invalid_argument("run_comparison: null trace");
  return run_comparison(*trace, kinds, config);
}

}  // namespace dtn
