#include "trace/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace dtn {
namespace {

void validate(const SyntheticTraceConfig& c) {
  if (c.node_count < 2) throw std::invalid_argument("need at least 2 nodes");
  if (c.duration <= 0.0) throw std::invalid_argument("duration must be positive");
  if (c.target_total_contacts <= 0.0) {
    throw std::invalid_argument("target_total_contacts must be positive");
  }
  if (c.popularity_shape <= 0.0) {
    throw std::invalid_argument("popularity_shape must be positive");
  }
  if (c.mean_contact_duration <= 0.0 || c.granularity < 0.0) {
    throw std::invalid_argument("contact duration parameters must be positive");
  }
  if (c.community_count < 0) throw std::invalid_argument("negative community count");
  if (c.intra_community_boost < 1.0) {
    throw std::invalid_argument("intra_community_boost must be >= 1");
  }
  if (!(c.pair_fraction > 0.0) || c.pair_fraction > 1.0) {
    throw std::invalid_argument("pair_fraction must be in (0, 1]");
  }
  if (c.burst_mean_contacts < 1.0 || c.burst_window <= 0.0) {
    throw std::invalid_argument("burst parameters invalid");
  }
  if (c.diurnal_amplitude < 0.0 || c.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument("diurnal_amplitude must be in [0, 1)");
  }
}

int community_of(NodeId node, int communities) {
  return communities > 1 ? node % communities : 0;
}

}  // namespace

SyntheticTraceConfig SyntheticTraceConfig::with_duration(Time new_duration) const {
  SyntheticTraceConfig copy = *this;
  if (new_duration <= 0.0) throw std::invalid_argument("duration must be positive");
  copy.target_total_contacts = target_total_contacts * (new_duration / duration);
  copy.duration = new_duration;
  return copy;
}

SyntheticTraceConfig SyntheticTraceConfig::with_seed(std::uint64_t s) const {
  SyntheticTraceConfig copy = *this;
  copy.seed = s;
  return copy;
}

std::vector<double> popularity_weights(const SyntheticTraceConfig& config) {
  validate(config);
  // Weights must depend only on (seed, node_count, popularity_shape) so that
  // PairRates and generate_trace agree.
  Rng rng(config.seed);
  std::vector<double> weights(static_cast<std::size_t>(config.node_count));
  for (auto& w : weights) w = rng.pareto(1.0, config.popularity_shape);
  return weights;
}

PairRates::PairRates(const SyntheticTraceConfig& config) : n_(config.node_count) {
  validate(config);
  const std::vector<double> weights = popularity_weights(config);

  const std::size_t pair_count =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_ - 1) / 2;
  rates_.resize(pair_count);

  std::size_t index = 0;
  double product_sum = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    for (NodeId j = i + 1; j < n_; ++j, ++index) {
      double base = weights[static_cast<std::size_t>(i)] *
                    weights[static_cast<std::size_t>(j)];
      if (config.community_count > 1 &&
          community_of(i, config.community_count) ==
              community_of(j, config.community_count)) {
        base *= config.intra_community_boost;
      }
      rates_[index] = base;
      product_sum += base;
    }
  }
  assert(index == pair_count);

  // Sparsify: keep a pair with probability proportional to its popularity
  // product, targeting `pair_fraction` of all pairs in expectation. The
  // draw uses its own seed stream so PairRates and generate_trace agree.
  if (config.pair_fraction < 1.0) {
    Rng edge_rng(config.seed ^ 0xED6E5EEDFACE0FFULL);
    const double mean_product = product_sum / static_cast<double>(pair_count);
    for (auto& r : rates_) {
      const double keep =
          std::min(1.0, config.pair_fraction * r / mean_product);
      if (!edge_rng.bernoulli(keep)) r = 0.0;
    }
  }

  // Scale so the expected total contact count over `duration` matches the
  // target: sum(lambda_ij) * duration = target.
  double unscaled_sum = 0.0;
  for (double r : rates_) unscaled_sum += r;
  if (unscaled_sum <= 0.0) {
    throw std::invalid_argument("pair sparsification removed every pair");
  }
  const double scale =
      config.target_total_contacts / (unscaled_sum * config.duration);
  for (auto& r : rates_) r *= scale;
}

double PairRates::rate(NodeId i, NodeId j) const {
  assert(i != j && i >= 0 && j >= 0 && i < n_ && j < n_);
  if (i > j) std::swap(i, j);
  // Row-major upper triangle offset: rows 0..i-1 contribute (n-1-row) each.
  const std::size_t row = static_cast<std::size_t>(i);
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t offset = row * (2 * n - row - 1) / 2;
  return rates_[offset + static_cast<std::size_t>(j - i - 1)];
}

ContactTrace generate_trace(const SyntheticTraceConfig& config) {
  validate(config);
  const PairRates rates(config);

  // Contact arrival streams must be independent of the weight draw above,
  // hence a distinct seed stream.
  Rng rng(config.seed ^ 0xA5A5A5A5DEADBEEFULL);

  std::vector<ContactEvent> events;
  events.reserve(static_cast<std::size_t>(config.target_total_contacts * 1.1));

  const double burst_mean = config.burst_mean_contacts;
  const double diurnal = config.diurnal_amplitude;
  // Poisson thinning for the diurnal cycle: draw candidates at the peak
  // rate, keep each with the instantaneous relative intensity.
  auto diurnal_keep = [&](Time t) {
    if (diurnal <= 0.0) return true;
    const double intensity =
        1.0 + diurnal * std::sin(2.0 * 3.14159265358979323846 *
                                 (t - config.diurnal_phase) / 86400.0);
    return rng.bernoulli(intensity / (1.0 + diurnal));
  };
  for (NodeId i = 0; i < config.node_count; ++i) {
    for (NodeId j = i + 1; j < config.node_count; ++j) {
      const double lambda = rates.rate(i, j);
      if (lambda <= 0.0) continue;
      // Burst (session) arrivals carry `burst_mean` contacts on average,
      // so the burst rate is scaled down to keep the expected total. The
      // diurnal peak factor is compensated by the thinning above.
      const double burst_rate = lambda / burst_mean * (1.0 + diurnal);
      Time t = rng.exponential(burst_rate);
      while (t < config.duration) {
        if (!diurnal_keep(t)) {
          t += rng.exponential(burst_rate);
          continue;
        }
        std::size_t contacts_in_burst = 1;
        if (burst_mean > 1.0) {
          // Geometric with mean `burst_mean` on {1, 2, ...}.
          const double p = 1.0 / burst_mean;
          double u;
          do {
            u = rng.uniform();
          } while (u <= 0.0);
          contacts_in_burst = 1 + static_cast<std::size_t>(
                                      std::log(u) / std::log(1.0 - p));
        }
        for (std::size_t k = 0; k < contacts_in_burst; ++k) {
          ContactEvent e;
          e.start = k == 0 ? t : t + rng.uniform() * config.burst_window;
          if (e.start >= config.duration) continue;
          e.duration =
              std::max(config.granularity,
                       rng.exponential(1.0 / config.mean_contact_duration));
          e.a = i;
          e.b = j;
          events.push_back(e);
        }
        t += rng.exponential(burst_rate);
      }
    }
  }

  return ContactTrace(config.node_count, std::move(events), config.name);
}

SyntheticTraceConfig infocom05_preset() {
  SyntheticTraceConfig c;
  c.name = "Infocom05";
  c.node_count = 41;
  c.duration = days(3);
  c.target_total_contacts = 22459;
  c.granularity = 120.0;
  c.mean_contact_duration = 240.0;
  c.popularity_shape = 2.0;  // conference crowd: moderately skewed
  c.community_count = 0;
  c.pair_fraction = 0.9;  // a conference: nearly everyone meets
  c.seed = 0x1F05;
  return c;
}

SyntheticTraceConfig infocom06_preset() {
  SyntheticTraceConfig c;
  c.name = "Infocom06";
  c.node_count = 78;
  c.duration = days(4);
  c.target_total_contacts = 182951;
  c.granularity = 120.0;
  c.mean_contact_duration = 240.0;
  c.popularity_shape = 2.0;
  c.community_count = 0;
  c.pair_fraction = 0.9;
  c.seed = 0x1F06;
  return c;
}

SyntheticTraceConfig mit_reality_preset() {
  SyntheticTraceConfig c;
  c.name = "MITReality";
  c.node_count = 97;
  c.duration = days(246);
  c.target_total_contacts = 114046;
  c.granularity = 300.0;
  c.mean_contact_duration = 600.0;
  // Campus trace: strong hubs, community structure, and most pairs never
  // meeting at all over the whole study.
  c.popularity_shape = 1.5;
  c.community_count = 6;
  c.intra_community_boost = 8.0;
  c.pair_fraction = 0.3;
  c.burst_mean_contacts = 4.0;  // Bluetooth re-detections while co-located
  c.burst_window = 3600.0;
  c.seed = 0x317;
  return c;
}

SyntheticTraceConfig ucsd_preset() {
  SyntheticTraceConfig c;
  c.name = "UCSD";
  c.node_count = 275;
  c.duration = days(77);
  c.target_total_contacts = 123225;
  c.granularity = 20.0;
  c.mean_contact_duration = 900.0;  // AP association sessions are long
  c.popularity_shape = 1.5;
  c.community_count = 10;
  c.intra_community_boost = 8.0;
  c.pair_fraction = 0.15;  // large campus: few pairs ever share an AP
  c.burst_mean_contacts = 6.0;  // repeated co-association at the same AP
  c.burst_window = 7200.0;
  c.seed = 0x0C5D;
  return c;
}

std::vector<SyntheticTraceConfig> all_presets() {
  return {infocom05_preset(), infocom06_preset(), mit_reality_preset(),
          ucsd_preset()};
}

std::optional<SyntheticTraceConfig> preset_by_name(std::string_view name) {
  for (SyntheticTraceConfig& preset : all_presets()) {
    std::string lower = preset.name;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (lower == name) return std::move(preset);
  }
  return std::nullopt;
}

}  // namespace dtn
