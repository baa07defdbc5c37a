// Online per-pair meeting-rate estimation for the serving daemon.
//
// The batch pipeline estimates lambda_ij once, from the whole warm-up
// window (graph/contact_graph.h RateEstimator). A long-running daemon
// instead watches an unbounded contact stream and needs an estimate that
// (a) tracks drift — rates in a live deployment are only piecewise stable —
// and (b) is cheap to update per contact. Following "Optimal Forwarding in
// Opportunistic DTNs with Meeting Rate Estimations" (PAPERS.md), we
// estimate the *inter-contact time* of each pair with an exponentially
// weighted moving average and invert it: lambda_ij = 1 / EWMA(gap).
//
// Determinism contract: the estimate is a pure fold over the contact
// sequence — no clocks, no iteration over unordered containers — so the
// same stream always produces bit-identical rates, which is what lets the
// daemon's ingest -> query scripts gate byte-for-byte.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "trace/contact_event.h"
#include "trace/trace.h"

namespace dtn::daemon {

/// Per-pair summary exposed for inspection (tracetool stats --pairs) and
/// warm-start validation. mean_gap/ewma_gap are 0 until two contacts have
/// been seen (one contact yields no inter-contact sample).
struct PairRateSummary {
  NodeId a = kNoNode;  ///< canonical order a < b
  NodeId b = kNoNode;
  std::uint32_t count = 0;  ///< contacts observed
  double mean_gap = 0.0;    ///< arithmetic mean inter-contact time (s)
  double ewma_gap = 0.0;    ///< exponentially weighted inter-contact time (s)
  double rate = 0.0;        ///< 1 / ewma_gap; 0 below two contacts
};

/// Exponentially weighted inter-contact estimator over all node pairs.
///
/// Update rule per contact of pair p at time t:
///   gap  = t - last_contact(p)
///   ewma = gap                            on the first gap
///   ewma = alpha * gap + (1-alpha) * ewma afterwards
/// Contacts with gap == 0 (duplicate timestamps: one physical meeting
/// reported twice) bump the count but do not feed the EWMA — a zero gap
/// would drive the rate to +inf.
///
/// Storage is dense upper-triangular like the batch RateEstimator: O(n^2/2)
/// small structs, the right trade for the paper's traces (41–275 nodes).
/// Decay/expiry (expiry > 0): without it, a pair that stops meeting keeps
/// its last EWMA rate forever — dead links stay attractive in the contact
/// graph indefinitely. With an expiry E, the estimate of a silent pair
/// degrades as the stream's watermark (latest contact time seen by the
/// estimator, across all pairs) moves past its last contact:
///   silence = watermark - last_contact(p)
///   silence >= E        -> rate = 0 (the pair has expired)
///   ewma < silence < E  -> the ongoing gap is already longer than the
///                          EWMA, and silence is a *lower bound* on it;
///                          blend it in provisionally:
///                          rate = 1 / (alpha*silence + (1-alpha)*ewma)
///   silence <= ewma     -> rate = 1 / ewma (no evidence of decay yet)
/// Still a pure fold over the contact stream — the watermark is stream
/// data, not a clock — so decayed rates remain bit-reproducible.
class EwmaRateEstimator {
 public:
  /// alpha in (0, 1]: weight of the newest gap. rate() reports 0 below
  /// kMinContactsForRate contacts (graph/contact_graph.h). expiry (seconds)
  /// enables the silence decay above; 0 keeps the legacy persist-forever
  /// behavior.
  explicit EwmaRateEstimator(NodeId node_count, double alpha = 0.125,
                             Time expiry = 0.0);

  NodeId node_count() const { return node_count_; }
  double alpha() const { return alpha_; }
  Time expiry() const { return expiry_; }
  /// Latest contact time ingested so far (0 before any contact).
  Time watermark() const { return watermark_; }

  /// Records one contact between i and j at time `when`. Contacts must
  /// arrive in non-decreasing time order, as in a ContactTrace
  /// (Daemon::ingest checks it); i != j.
  /// Returns the flat pair index (stable identifier for dirty tracking).
  std::size_t record(NodeId i, NodeId j, Time when);

  /// Current rate estimate of the pair: 1 / ewma_gap once
  /// kMinContactsForRate contacts have been seen, else 0.
  double rate(NodeId i, NodeId j) const;
  double rate_by_index(std::size_t pair_index) const;

  std::uint32_t contact_count(NodeId i, NodeId j) const;

  /// The pair's slot (common/pairs.h; i != j, both in range).
  std::size_t pair_index(NodeId i, NodeId j) const;

  /// Inverse of pair_index (for reporting).
  void pair_nodes(std::size_t pair_index, NodeId& a, NodeId& b) const;

  /// Feeds every contact of `trace` (already time-sorted) through record():
  /// the daemon's warm start, and tracetool's offline inspection path.
  void warm_start(const ContactTrace& trace);

  /// Summaries of every pair with at least `min_count` contacts, in
  /// canonical (a, b) ascending order — deterministic, golden-testable.
  std::vector<PairRateSummary> summaries(std::uint32_t min_count = 1) const;

  /// Summary of one pair (count may be 0).
  PairRateSummary summary(NodeId i, NodeId j) const;

 private:
  struct Cell {
    std::uint32_t count = 0;
    Time last = 0.0;
    double gap_sum = 0.0;  ///< for mean_gap reporting
    double ewma = 0.0;
  };

  NodeId node_count_;
  double alpha_;
  Time expiry_;
  Time watermark_ = 0.0;
  std::vector<Cell> cells_;  ///< one per pair_index
};

}  // namespace dtn::daemon
