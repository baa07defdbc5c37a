// The data-access scheme interface.
//
// Every scheme in the evaluation — the paper's NCL caching and the four
// baselines — implements these hooks; the engine (sim/engine.h) drives them
// from the merged contact + workload timeline, so comparisons are apples to
// apples: identical trace, identical workload, identical link budgets.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "graph/all_pairs.h"
#include "net/message.h"
#include "sim/link_budget.h"
#include "sim/metrics.h"

namespace dtn {

/// Engine-owned context passed to every hook. Provides the clock, the data
/// registry, the periodically refreshed opportunistic-path tables, a
/// deterministic RNG stream and the metrics sink. Each scheme run has its
/// own SimServices; the path tables behind it are shared read-only by every
/// scheme of the same repetition (sim/engine.h, SimLane).
class SimServices {
 public:
  SimServices(const DataRegistry& registry, Rng& rng, MetricsCollector& metrics)
      : registry_(&registry), rng_(&rng), metrics_(&metrics) {}

  Time now() const { return now_; }
  const DataRegistry& registry() const { return *registry_; }
  const DataItem& data(DataId id) const { return registry_->get(id); }
  Rng& rng() { return *rng_; }

  /// All-pairs shortest opportunistic paths, recomputed from the online
  /// rate estimates at every maintenance tick. Empty before the first tick
  /// (schemes should treat unknown weights as 0).
  const AllPairsPaths& paths() const {
    if (paths_) return *paths_;
    static const AllPairsPaths kNoPaths;
    return kNoPaths;
  }

  /// Weight helper tolerating the pre-maintenance empty state.
  double path_weight(NodeId from, NodeId to) const {
    if (!paths_ || paths_->empty()) return from == to ? 1.0 : 0.0;
    return paths_->weight(from, to);
  }

  /// A data copy for `query` reached the requester at the current time.
  void deliver(const Query& query) { metrics_->on_delivery(query, now_); }

  /// Bandwidth accounting (the engine does not see scheme transfers).
  void count_bytes(Bytes bytes) { metrics_->on_bytes_transferred(bytes); }

  /// Cache-replacement accounting: `items` data items moved or dropped.
  void count_replacement(std::size_t items) { metrics_->on_replacement(items); }

  // Engine-side mutators.
  void set_now(Time now) { now_ = now; }
  void set_paths(std::shared_ptr<const AllPairsPaths> paths) {
    paths_ = std::move(paths);
  }

 private:
  Time now_ = 0.0;
  const DataRegistry* registry_;
  Rng* rng_;
  MetricsCollector* metrics_;
  std::shared_ptr<const AllPairsPaths> paths_;
};

/// Kept only because perfbench/harness.cpp overrides Scheme::concurrency().
enum class SchemeConcurrency { kGlobal };

/// Base class for all data-access schemes.
///
/// The engine may run the hooks of different Scheme instances at the same
/// time (one thread-pool task per scheme run, sim/engine.h), so an instance
/// must not share mutable state with another instance. Hooks of one
/// instance are always called one at a time, in timeline order.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  virtual SchemeConcurrency concurrency() const {
    return SchemeConcurrency::kGlobal;
  }

  /// Called once before the first event of the data-access phase.
  virtual void on_start(SimServices& services) { (void)services; }

  /// Called at every maintenance tick, after `services.paths()` has been
  /// refreshed. Schemes prune expired state here.
  virtual void on_maintenance(SimServices& services) { (void)services; }

  /// A node generated a new data item (the source holds it natively).
  virtual void on_data_generated(SimServices& services, const DataItem& item) = 0;

  /// A node issued a query. If the scheme can satisfy it locally it calls
  /// services.deliver(query) immediately.
  virtual void on_query(SimServices& services, const Query& query) = 0;

  /// Nodes a and b are in contact; `budget` limits the bytes this session
  /// can carry.
  virtual void on_contact(SimServices& services, NodeId a, NodeId b,
                          LinkBudget& budget) = 0;

  /// Called once after the last event.
  virtual void on_end(SimServices& services) { (void)services; }

  /// Total data copies currently cached in the network (excluding the
  /// sources' own originals), for the caching-overhead metric.
  virtual std::size_t cached_copies(Time now) const = 0;

  /// Total bytes currently cached (optional, for reporting).
  virtual Bytes cached_bytes(Time now) const {
    (void)now;
    return 0;
  }
};

}  // namespace dtn
