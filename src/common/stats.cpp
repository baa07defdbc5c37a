#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace dtn {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return n_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return n_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double gini(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double total = std::accumulate(samples.begin(), samples.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const double n = static_cast<double>(samples.size());
  double weighted = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    weighted += static_cast<double>(i + 1) * samples[i];
  }
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  DTN_CHECK(hi > lo && buckets > 0);
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width);
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bucket_low(std::size_t bucket) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bucket);
}

double Histogram::bucket_high(std::size_t bucket) const {
  return bucket_low(bucket + 1);
}

std::string Histogram::to_string(std::size_t max_bar_width) const {
  std::ostringstream out;
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    out.setf(std::ios::fixed);
    out.precision(4);
    out << "[" << bucket_low(b) << ", " << bucket_high(b) << ") ";
    const std::size_t bar =
        peak == 0 ? 0 : counts_[b] * max_bar_width / peak;
    for (std::size_t i = 0; i < bar; ++i) out << '#';
    out << " " << counts_[b] << "\n";
  }
  return out.str();
}

}  // namespace dtn
