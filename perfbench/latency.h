// Latency statistics of the benchmark: nearest-rank percentiles under the
// "at least ten samples beyond" reporting rule, and due-time accounting for
// the open-loop query generator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the value of a handful of outliers.
inline constexpr std::size_t kMinTailSamples = 10;

/// 1-based nearest rank of quantile q among n >= 1 samples: ceil(q * n),
/// clamped to [1, n].
inline std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon keeps a product such as 0.99 * 1000, which is not exact in
  // binary, from rounding up to the next rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

inline bool tail_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

/// The highest quantile in `candidates` that n samples can report; 0 when
/// none can.
inline double highest_reportable(std::size_t n,
                                 const std::vector<double>& candidates) {
  double best = 0.0;
  for (const double q : candidates) {
    if (tail_reportable(n, q)) best = std::max(best, q);
  }
  return best;
}

/// Nearest-rank q-quantile of the samples; 0 when there are none.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto k =
      static_cast<std::ptrdiff_t>(nearest_rank(samples.size(), q) - 1);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[static_cast<std::size_t>(k)];
}

/// Median: the mean of the two middle samples for an even count.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

/// Open-loop schedule: request i is due at start + i * interval whether or
/// not the requests before it have finished.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double interval_ns = 0.0;

  std::int64_t due_ns(std::uint64_t i) const {
    return start_ns +
           std::llround(static_cast<double>(i) * interval_ns);
  }
};

/// Timing of one open-loop request. Latency runs from when the request was
/// due, so a stall is also charged to every request queued behind it;
/// lateness is how far the generator itself fell behind its schedule.
struct OpenLoopTiming {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;

  std::int64_t latency_ns() const { return done_ns - due_ns; }
  std::int64_t late_ns() const {
    return sent_ns > due_ns ? sent_ns - due_ns : 0;
  }
};

}  // namespace perfbench
