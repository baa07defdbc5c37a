// Run metrics matching the paper's evaluation metrics (Sec. VI):
// successful ratio, data access delay, caching overhead (average number of
// cached copies per live data item) and cache-replacement overhead.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "common/stats.h"
#include "common/types.h"
#include "net/message.h"

namespace dtn {

class MetricsCollector {
 public:
  /// Called by the engine for every issued query.
  void on_query_issued(const Query& query);

  /// Called (via SimServices) when a data copy reaches the requester.
  /// Only the first delivery of each query counts; duplicates are recorded
  /// separately as wasted transmissions.
  void on_delivery(const Query& query, Time when);

  /// Periodic sample: cached copies per alive data item.
  void sample_copy_count(double copies_per_item);

  /// Bytes moved over links (all transfers).
  void on_bytes_transferred(Bytes bytes) { bytes_transferred_ += bytes; }

  /// Data items moved or dropped by cache replacement.
  void on_replacement(std::size_t items) { replaced_items_ += items; }

  /// Total data items generated (for replacement overhead normalization).
  void set_data_count(std::size_t count) { data_count_ = count; }

  // ---- results ----
  std::size_t queries_issued() const { return queries_issued_; }
  std::size_t queries_satisfied() const { return satisfied_.size(); }
  std::size_t duplicate_deliveries() const { return duplicate_deliveries_; }

  /// Fraction of issued queries satisfied before expiry.
  double success_ratio() const;

  /// Mean delay (seconds) over satisfied queries.
  double mean_delay() const { return delay_.mean(); }
  const RunningStats& delay_stats() const { return delay_; }

  /// Time-average cached copies per live data item.
  double mean_copies() const { return copies_.mean(); }

  std::uint64_t bytes_transferred() const { return bytes_transferred_; }

  /// Replaced items per generated data item.
  double replacement_overhead() const;

 private:
  std::size_t queries_issued_ = 0;
  std::unordered_set<QueryId> satisfied_;
  std::size_t duplicate_deliveries_ = 0;
  RunningStats delay_;
  RunningStats copies_;
  std::uint64_t bytes_transferred_ = 0;
  std::uint64_t replaced_items_ = 0;
  std::size_t data_count_ = 0;
};

}  // namespace dtn
