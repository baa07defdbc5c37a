#include "sim/metrics.h"

#include "common/check.h"

namespace dtn {

void MetricsCollector::on_query_issued(const Query& query) {
  (void)query;
  ++queries_issued_;
}

void MetricsCollector::on_delivery(const Query& query, Time when) {
  if (when >= query.expires) return;  // too late: does not count
  if (!satisfied_.insert(query.id).second) {
    ++duplicate_deliveries_;
    return;
  }
  // Delivery before issuance would mean the simulator replayed events out
  // of order; the delay statistics would silently go negative.
  DTN_CHECK_GE(when, query.issued);
  delay_.add(when - query.issued);
}

void MetricsCollector::sample_copy_count(double copies_per_item) {
  DTN_CHECK_FINITE(copies_per_item);
  DTN_CHECK_GE(copies_per_item, 0.0);
  copies_.add(copies_per_item);
}

double MetricsCollector::success_ratio() const {
  if (queries_issued_ == 0) return 0.0;
  const double ratio = static_cast<double>(satisfied_.size()) /
                       static_cast<double>(queries_issued_);
  // Each satisfied id corresponds to exactly one issued query.
  DTN_CHECK_PROB(ratio);
  return ratio;
}

double MetricsCollector::replacement_overhead() const {
  if (data_count_ == 0) return 0.0;
  return static_cast<double>(replaced_items_) /
         static_cast<double>(data_count_);
}

}  // namespace dtn
