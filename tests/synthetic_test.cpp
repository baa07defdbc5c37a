#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/stats.h"

namespace dtn {
namespace {

SyntheticTraceConfig small_config() {
  SyntheticTraceConfig c;
  c.name = "small";
  c.node_count = 20;
  c.duration = days(2);
  c.target_total_contacts = 5000;
  c.granularity = 60.0;
  c.mean_contact_duration = 120.0;
  c.seed = 99;
  return c;
}

TEST(Synthetic, DeterministicForSameSeed) {
  const ContactTrace a = generate_trace(small_config());
  const ContactTrace b = generate_trace(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]);
  }
}

TEST(Synthetic, DifferentSeedsProduceDifferentTraces) {
  const ContactTrace a = generate_trace(small_config());
  const ContactTrace b = generate_trace(small_config().with_seed(1234));
  EXPECT_NE(a.size(), b.size());
}

TEST(Synthetic, ContactCountNearTarget) {
  const ContactTrace t = generate_trace(small_config());
  // Poisson total: expect within ~5 sigma of 5000.
  EXPECT_NEAR(static_cast<double>(t.size()), 5000.0, 5.0 * std::sqrt(5000.0));
}

TEST(Synthetic, EventsWithinDuration) {
  const SyntheticTraceConfig c = small_config();
  const ContactTrace t = generate_trace(c);
  for (const auto& e : t.events()) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_LT(e.start, c.duration);
    EXPECT_GE(e.duration, c.granularity);
  }
}

TEST(Synthetic, NodeIdsInRange) {
  const SyntheticTraceConfig c = small_config();
  const ContactTrace t = generate_trace(c);
  for (const auto& e : t.events()) {
    EXPECT_GE(e.a, 0);
    EXPECT_LT(e.b, c.node_count);
    EXPECT_LT(e.a, e.b);
  }
}

TEST(Synthetic, WithDurationPreservesRates) {
  const SyntheticTraceConfig full = small_config();
  const SyntheticTraceConfig half = full.with_duration(full.duration / 2.0);
  EXPECT_DOUBLE_EQ(half.target_total_contacts, full.target_total_contacts / 2.0);
  // Same node weights => same relative structure.
  const PairRates r_full(full);
  const PairRates r_half(half);
  EXPECT_NEAR(r_full.rate(0, 1), r_half.rate(0, 1), 1e-12);
}

TEST(Synthetic, PopularityWeightsSkewed) {
  SyntheticTraceConfig c = small_config();
  c.node_count = 200;
  c.popularity_shape = 1.5;
  const std::vector<double> w = popularity_weights(c);
  EXPECT_EQ(w.size(), 200u);
  for (double x : w) EXPECT_GE(x, 1.0);
  EXPECT_GT(gini(w), 0.15);  // a Pareto(1.5) sample is visibly unequal
}

TEST(Synthetic, PairRatesSymmetric) {
  const PairRates rates(small_config());
  EXPECT_DOUBLE_EQ(rates.rate(3, 7), rates.rate(7, 3));
}

TEST(Synthetic, PairRatesSumMatchesTarget) {
  const SyntheticTraceConfig c = small_config();
  const PairRates rates(c);
  double total = 0.0;
  for (NodeId i = 0; i < c.node_count; ++i) {
    for (NodeId j = i + 1; j < c.node_count; ++j) total += rates.rate(i, j);
  }
  EXPECT_NEAR(total * c.duration, c.target_total_contacts, 1e-6);
}

TEST(Synthetic, CommunityBoostRaisesIntraRates) {
  SyntheticTraceConfig c = small_config();
  c.community_count = 2;
  c.intra_community_boost = 10.0;
  const PairRates rates(c);
  // Nodes 0 and 2 share community 0; nodes 0 and 1 do not.
  const std::vector<double> w = popularity_weights(c);
  const double intra = rates.rate(0, 2) / (w[0] * w[2]);
  const double inter = rates.rate(0, 1) / (w[0] * w[1]);
  EXPECT_NEAR(intra / inter, 10.0, 1e-9);
}

TEST(Synthetic, RejectsBadConfigs) {
  SyntheticTraceConfig c = small_config();
  c.node_count = 1;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
  c = small_config();
  c.duration = 0.0;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
  c = small_config();
  c.target_total_contacts = -1;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
  c = small_config();
  c.popularity_shape = 0.0;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
  c = small_config();
  c.intra_community_boost = 0.5;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
  EXPECT_THROW(small_config().with_duration(-1.0), std::invalid_argument);
}

TEST(Synthetic, DiurnalCyclePreservesTotals) {
  SyntheticTraceConfig c = small_config();
  c.target_total_contacts = 20000;
  c.duration = days(10);
  SyntheticTraceConfig cyclic = c;
  cyclic.diurnal_amplitude = 0.8;
  const double flat = static_cast<double>(generate_trace(c).size());
  const double modulated = static_cast<double>(generate_trace(cyclic).size());
  // Thinning keeps the expectation; allow 6 sigma of Poisson noise.
  EXPECT_NEAR(modulated, flat, 6.0 * std::sqrt(flat));
}

TEST(Synthetic, DiurnalCycleConcentratesContactsAtPeak) {
  SyntheticTraceConfig c = small_config();
  c.duration = days(10);
  c.target_total_contacts = 20000;
  c.diurnal_amplitude = 0.9;
  c.diurnal_phase = 0.0;  // peak at 6h, trough at 18h (sin maximum/minimum)
  const ContactTrace trace = generate_trace(c);
  std::size_t first_half = 0, second_half = 0;
  for (const auto& e : trace.events()) {
    const double tod = std::fmod(e.start, 86400.0);
    (tod < 43200.0 ? first_half : second_half) += 1;
  }
  // sin is positive over [0, 12h): that half of the day must dominate.
  EXPECT_GT(static_cast<double>(first_half),
            1.5 * static_cast<double>(second_half));
}

TEST(Synthetic, ZeroAmplitudeIsExactLegacyOutput) {
  SyntheticTraceConfig c = small_config();
  SyntheticTraceConfig zero = c;
  zero.diurnal_amplitude = 0.0;
  const ContactTrace a = generate_trace(c);
  const ContactTrace b = generate_trace(zero);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]);
  }
}

TEST(Synthetic, DiurnalValidation) {
  SyntheticTraceConfig c = small_config();
  c.diurnal_amplitude = 1.0;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
  c.diurnal_amplitude = -0.1;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
}

TEST(Synthetic, PresetsMatchTableOne) {
  const auto presets = all_presets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].name, "Infocom05");
  EXPECT_EQ(presets[0].node_count, 41);
  EXPECT_NEAR(presets[0].duration, days(3), 1.0);
  EXPECT_EQ(presets[1].name, "Infocom06");
  EXPECT_EQ(presets[1].node_count, 78);
  EXPECT_EQ(presets[2].name, "MITReality");
  EXPECT_EQ(presets[2].node_count, 97);
  EXPECT_NEAR(presets[2].duration, days(246), 1.0);
  EXPECT_EQ(presets[3].name, "UCSD");
  EXPECT_EQ(presets[3].node_count, 275);
}

TEST(Synthetic, PresetByNameTakesTheLowerCasedName) {
  const std::pair<const char*, const char*> names[] = {
      {"infocom05", "Infocom05"},
      {"infocom06", "Infocom06"},
      {"mitreality", "MITReality"},
      {"ucsd", "UCSD"}};
  for (const auto& [key, name] : names) {
    const auto preset = preset_by_name(key);
    ASSERT_TRUE(preset.has_value()) << key;
    EXPECT_EQ(preset->name, name);
  }
  EXPECT_EQ(preset_by_name("mitreality")->seed, mit_reality_preset().seed);
  for (const char* name : {"mit", "MITReality", "", "rwp"}) {
    EXPECT_FALSE(preset_by_name(name).has_value()) << name;
  }
}

TEST(Synthetic, ScaledPresetGeneratesQuickly) {
  // A 10-day slice of MIT Reality keeps rates but shrinks volume.
  const auto c = mit_reality_preset().with_duration(days(10));
  const ContactTrace t = generate_trace(c);
  EXPECT_GT(t.size(), 1000u);
  EXPECT_LT(t.size(), 20000u);
  EXPECT_EQ(t.node_count(), 97);
}

TEST(Synthetic, AllNodesParticipateInLargePreset) {
  const auto c = infocom06_preset();
  const ContactTrace t = generate_trace(c);
  std::set<NodeId> seen;
  for (const auto& e : t.events()) {
    seen.insert(e.a);
    seen.insert(e.b);
  }
  // A dense conference trace should involve every device.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(c.node_count));
}

}  // namespace
}  // namespace dtn
