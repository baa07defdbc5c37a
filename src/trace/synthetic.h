// Synthetic contact-trace generation.
//
// The paper evaluates on four real traces (Table I). Those traces are not
// redistributable, so we generate synthetic equivalents from the paper's own
// network model (Sec. III-B): pairwise contacts form Poisson processes with
// stable rates. Heterogeneity of node popularity — the property Fig. 4
// validates and NCL selection depends on — is induced by drawing per-node
// popularity weights from a Pareto distribution and optionally overlaying a
// community structure (campus traces such as MIT Reality are strongly
// modular). A generated trace is calibrated to match a preset's device
// count, duration and total contact volume.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "trace/trace.h"

namespace dtn {

/// Parameters of the synthetic generator. Aggregate with no invariant
/// beyond "validated at generation time".
struct SyntheticTraceConfig {
  std::string name = "synthetic";
  NodeId node_count = 50;
  Time duration = days(3);

  /// Total number of contacts to aim for over the whole trace; pair rates
  /// are scaled so the *expected* count equals this.
  double target_total_contacts = 20000;

  /// Pareto shape for node popularity weights; smaller values produce a
  /// heavier tail, i.e. fewer, stronger hubs. Typical: 1.5 – 3.
  double popularity_shape = 2.0;

  /// Mean contact duration in seconds (drawn exponentially, floored at
  /// `granularity`). Mirrors the detection granularity in Table I.
  Time mean_contact_duration = 240.0;
  Time granularity = 120.0;

  /// Contacts arrive in bursts (sessions): real devices detect each other
  /// repeatedly while co-located, so raw contact counts overstate the
  /// number of independent meeting opportunities. Burst arrivals are
  /// Poisson; each burst carries a geometric number of contacts with this
  /// mean, spread over `burst_window` seconds. 1.0 disables burstiness.
  double burst_mean_contacts = 1.0;
  Time burst_window = 3600.0;

  /// Diurnal activity cycle: burst arrivals are modulated by
  /// 1 + amplitude * sin(2*pi*(t - phase)/24h), realized by Poisson
  /// thinning, so the expected total contact count is unchanged.
  /// 0 disables the cycle (exact legacy output). Must be in [0, 1).
  double diurnal_amplitude = 0.0;
  Time diurnal_phase = 0.0;

  /// Number of communities; 0 or 1 disables community structure. Nodes are
  /// assigned round-robin; intra-community pair rates are multiplied by
  /// `intra_community_boost`.
  int community_count = 0;
  double intra_community_boost = 5.0;

  /// Expected fraction of node pairs that ever meet (1.0 = every pair has
  /// a contact process). Real traces are sparse: most pairs never meet, and
  /// the pairs that do are biased towards popular nodes. A pair is kept
  /// with probability min(1, pair_fraction * product / mean_product), where
  /// product is the (community-boosted) popularity product — so hubs keep
  /// nearly all their links while peripheral pairs are pruned.
  double pair_fraction = 1.0;

  std::uint64_t seed = 1;

  /// Returns a copy with a different duration, preserving contact *rates*
  /// (total contacts scale proportionally). Used by benches to run
  /// shortened but statistically identical experiments.
  SyntheticTraceConfig with_duration(Time new_duration) const;

  /// Returns a copy with a different seed (for repetitions).
  SyntheticTraceConfig with_seed(std::uint64_t s) const;
};

/// Generates a trace from the configuration. Deterministic in the seed.
/// Throws std::invalid_argument on nonsensical parameters.
ContactTrace generate_trace(const SyntheticTraceConfig& config);

/// Per-node popularity weights used by the most recent design discussion;
/// exposed so tests can verify the skew the generator induces.
std::vector<double> popularity_weights(const SyntheticTraceConfig& config);

/// Pairwise contact rates (lambda, per second) implied by the config, as a
/// flat row-major upper-triangular matrix helper. Mostly for tests and
/// validation; generation itself uses the same values.
class PairRates {
 public:
  explicit PairRates(const SyntheticTraceConfig& config);
  double rate(NodeId i, NodeId j) const;
  NodeId node_count() const { return n_; }

 private:
  NodeId n_;
  std::vector<double> rates_;  // upper triangle, row-major
};

/// Calibrated presets mirroring paper Table I.
SyntheticTraceConfig infocom05_preset();
SyntheticTraceConfig infocom06_preset();
SyntheticTraceConfig mit_reality_preset();
SyntheticTraceConfig ucsd_preset();

/// All four presets in Table I order.
std::vector<SyntheticTraceConfig> all_presets();

/// The preset whose lower-cased `name` equals `name` (infocom05,
/// infocom06, mitreality, ucsd); nullopt for any other name. The one
/// preset-name lookup of the command-line tools and examples.
std::optional<SyntheticTraceConfig> preset_by_name(std::string_view name);

}  // namespace dtn
