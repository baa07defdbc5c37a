#include "daemon/rate_estimator.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"
#include "common/pairs.h"
#include "graph/contact_graph.h"

namespace dtn::daemon {

EwmaRateEstimator::EwmaRateEstimator(NodeId node_count, double alpha,
                                     Time expiry)
    : node_count_(node_count), alpha_(alpha), expiry_(expiry) {
  if (node_count < 2) {
    throw std::invalid_argument("estimator needs at least 2 nodes");
  }
  if (!(alpha > 0.0) || alpha > 1.0) {
    throw std::invalid_argument("alpha must be in (0, 1]");
  }
  if (expiry < 0.0) {
    throw std::invalid_argument("expiry must be >= 0 (0 = never)");
  }
  cells_.resize(pair_count(node_count));
}

std::size_t EwmaRateEstimator::pair_index(NodeId i, NodeId j) const {
  return dtn::pair_index(i, j, node_count_);
}

void EwmaRateEstimator::pair_nodes(std::size_t pair_index, NodeId& a,
                                   NodeId& b) const {
  dtn::pair_nodes(pair_index, node_count_, a, b);
}

std::size_t EwmaRateEstimator::record(NodeId i, NodeId j, Time when) {
  const std::size_t index = pair_index(i, j);
  Cell& cell = cells_[index];
  if (cell.count > 0) {
    const Time gap = when - cell.last;
    // Callers feed contacts in global time order, which implies per-pair
    // order; a negative gap means the feed is corrupt.
    DTN_CHECK_GE(gap, 0.0);
    if (gap > 0.0) {
      cell.gap_sum += gap;
      // First positive gap seeds the EWMA; afterwards the standard
      // exponential blend. ewma == 0 only before any positive gap.
      cell.ewma = cell.ewma > 0.0
                      ? alpha_ * gap + (1.0 - alpha_) * cell.ewma
                      : gap;
    }
  }
  cell.last = when;
  ++cell.count;
  watermark_ = std::max(watermark_, when);
  return index;
}

double EwmaRateEstimator::rate_by_index(std::size_t pair_index) const {
  DTN_CHECK(pair_index < cells_.size(), "pair index out of range");
  const Cell& cell = cells_[pair_index];
  if (cell.count < kMinContactsForRate || cell.ewma <= 0.0) return 0.0;
  double ewma = cell.ewma;
  if (expiry_ > 0.0) {
    // Silence decay (header comment): the time since the pair's last
    // contact, measured against the stream watermark, is a lower bound on
    // the gap currently in progress.
    const Time silence = watermark_ - cell.last;
    if (silence >= expiry_) return 0.0;
    if (silence > ewma) ewma = alpha_ * silence + (1.0 - alpha_) * ewma;
  }
  const double rate = 1.0 / ewma;
  DTN_CHECK_FINITE(rate);
  return rate;
}

double EwmaRateEstimator::rate(NodeId i, NodeId j) const {
  return rate_by_index(pair_index(i, j));
}

std::uint32_t EwmaRateEstimator::contact_count(NodeId i, NodeId j) const {
  return cells_[pair_index(i, j)].count;
}

void EwmaRateEstimator::warm_start(const ContactTrace& trace) {
  for (const ContactEvent& event : trace.events()) {
    record(event.a, event.b, event.start);
  }
}

PairRateSummary EwmaRateEstimator::summary(NodeId i, NodeId j) const {
  const Cell& cell = cells_[pair_index(i, j)];
  PairRateSummary out;
  out.a = std::min(i, j);
  out.b = std::max(i, j);
  out.count = cell.count;
  // count - 1 inter-contact samples, minus any zero gaps which feed
  // neither the mean nor the EWMA; gap_sum accumulates only positive
  // gaps, so the mean uses the same sample set as the EWMA.
  if (cell.count >= 2 && cell.gap_sum > 0.0 && cell.ewma > 0.0) {
    // Positive-gap sample count is not stored; the mean over the stored
    // sum with (count - 1) slightly underestimates when duplicates exist,
    // which is exactly the "duplicates are one meeting" reading we want.
    out.mean_gap = cell.gap_sum / static_cast<double>(cell.count - 1);
    out.ewma_gap = cell.ewma;
  }
  out.rate = rate_by_index(pair_index(i, j));
  return out;
}

std::vector<PairRateSummary> EwmaRateEstimator::summaries(
    std::uint32_t min_count) const {
  std::vector<PairRateSummary> out;
  for (NodeId a = 0; a < node_count_; ++a) {
    for (NodeId b = a + 1; b < node_count_; ++b) {
      const Cell& cell = cells_[pair_index(a, b)];
      if (cell.count < min_count || cell.count == 0) continue;
      out.push_back(summary(a, b));
    }
  }
  return out;
}

}  // namespace dtn::daemon
