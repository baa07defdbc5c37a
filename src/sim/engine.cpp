#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/instrument.h"
#include "graph/contact_graph.h"

namespace dtn {
namespace {

/// Throws std::invalid_argument on any out-of-range SimConfig field.
void validate_sim_config(const SimConfig& config) {
  if (config.bandwidth_per_second <= 0) {
    throw std::invalid_argument("bandwidth must be positive");
  }
  if (!(config.path_horizon > 0.0)) {
    throw std::invalid_argument("path horizon must be positive");
  }
  if (config.max_hops < 1) throw std::invalid_argument("max_hops must be >= 1");
  if (!(config.maintenance_interval > 0.0)) {
    throw std::invalid_argument("maintenance interval must be positive");
  }
  if (config.contact_miss_prob < 0.0 || config.contact_miss_prob > 1.0) {
    throw std::invalid_argument("contact_miss_prob must be in [0,1]");
  }
  if (config.threads < 0) {
    throw std::invalid_argument("threads must be >= 0");
  }
  for (const auto& d : config.node_downtime) {
    if (d.node < 0 || d.to < d.from) {
      throw std::invalid_argument("invalid downtime interval");
    }
  }
}

/// Per-node sorted downtime intervals for O(log n) lookups.
class DowntimeIndex {
 public:
  DowntimeIndex(const std::vector<SimConfig::Downtime>& downtimes,
                NodeId node_count) {
    intervals_.resize(
        static_cast<std::size_t>(std::max<NodeId>(node_count, 1)));
    for (const auto& d : downtimes) {
      if (d.node < node_count) {
        intervals_[static_cast<std::size_t>(d.node)].push_back({d.from, d.to});
      }
    }
    for (auto& list : intervals_) std::sort(list.begin(), list.end());
  }

  bool down(NodeId node, Time when) const {
    const auto& list = intervals_[static_cast<std::size_t>(node)];
    // Last interval starting at or before `when`.
    auto it = std::upper_bound(list.begin(), list.end(),
                               std::make_pair(when, kNever));
    if (it == list.begin()) return false;
    --it;
    return when < it->second;
  }

 private:
  std::vector<std::vector<std::pair<Time, Time>>> intervals_;
};

}  // namespace

std::vector<SimConfig::Downtime> random_downtimes(NodeId node_count,
                                                  Time duration,
                                                  double failures_per_node,
                                                  Time mean_outage,
                                                  std::uint64_t seed) {
  if (failures_per_node < 0.0 || mean_outage < 0.0 || duration <= 0.0) {
    throw std::invalid_argument("invalid downtime parameters");
  }
  std::vector<SimConfig::Downtime> result;
  if (failures_per_node == 0.0 || mean_outage == 0.0) return result;
  Rng rng(seed);
  const double rate = failures_per_node / duration;
  for (NodeId node = 0; node < node_count; ++node) {
    Time t = rng.exponential(rate);
    while (t < duration) {
      SimConfig::Downtime d;
      d.node = node;
      d.from = t;
      d.to = t + rng.exponential(1.0 / mean_outage);
      result.push_back(d);
      t = d.to + rng.exponential(rate);
    }
  }
  return result;
}

RunResult run_simulation(const ContactTrace& trace, const Workload& workload,
                         Scheme& scheme, const SimConfig& config) {
  traceio::VectorContactCursor contacts(trace.events());
  return run_simulation(contacts, trace.node_count(), trace.end_time(),
                        workload, scheme, config);
}

RunResult run_simulation(traceio::ContactCursor& contacts, NodeId node_count,
                         Time trace_end_hint, const Workload& workload,
                         Scheme& scheme, const SimConfig& config) {
  validate_sim_config(config);
  DTN_SCOPED_TIMER(kSimulation);

  RunResult result;
  Rng rng(config.seed);
  // Failure injection uses its own stream so enabling it does not perturb
  // the scheme's random decisions.
  Rng failure_rng(config.seed ^ 0xFA11FA11FA11FA11ULL);
  const DowntimeIndex downtime(config.node_downtime, node_count);
  SimServices services(workload.registry(), rng, result.metrics);
  result.metrics.set_data_count(workload.data_count());

  RateEstimator estimator(std::max<NodeId>(node_count, 2),
                          config.rate_decay);

  const auto& work = workload.events();

  // One-event lookahead over the contact stream; O(1) contact memory.
  ContactEvent pending;
  bool has_pending = contacts.next(pending);
  Time latest_contact_end = has_pending ? pending.end() : 0.0;

  // The data-access phase starts at the first workload event; maintenance
  // ticks start there too (the administrator has already selected NCLs from
  // warm-up data before the scheme was constructed).
  const Time phase_start = work.empty() ? trace_end_hint : work.front().time;
  Time next_maintenance = phase_start;
  bool started = false;

  auto run_maintenance = [&](Time now) {
    DTN_SCOPED_TIMER(kMaintenance);
    DTN_COUNT(kMaintenanceTicks);
    services.set_now(now);
    services.set_paths(AllPairsPaths(
        estimator.snapshot(now, config.min_contacts_for_rate),
        config.path_horizon, config.max_hops, config.threads,
        config.path_engine));
    if (!started) {
      scheme.on_start(services);
      started = true;
    }
    scheme.on_maintenance(services);
    const std::size_t alive = workload.registry().alive_count(now);
    if (alive > 0) {
      result.metrics.sample_copy_count(
          static_cast<double>(scheme.cached_copies(now)) /
          static_cast<double>(alive));
    }
    ++result.maintenance_ticks;
  };

  std::size_t wi = 0;  // next workload event
  while (has_pending || wi < work.size()) {
    const Time t_contact = has_pending ? pending.start : kNever;
    const Time t_work = wi < work.size() ? work[wi].time : kNever;
    const Time t_next = std::min(t_contact, t_work);

    // Fire any maintenance ticks due before the next event.
    while (next_maintenance <= t_next && next_maintenance != kNever) {
      run_maintenance(next_maintenance);
      next_maintenance += config.maintenance_interval;
    }

    // Workload events take precedence at equal times so that data exists
    // before a same-instant contact can push it.
    if (t_work <= t_contact) {
      const WorkloadEvent& e = work[wi++];
      services.set_now(e.time);
      if (e.kind == WorkloadEvent::Kind::kDataGenerated) {
        scheme.on_data_generated(services, workload.registry().get(e.data));
      } else {
        result.metrics.on_query_issued(e.query);
        scheme.on_query(services, e.query);
      }
    } else {
      const ContactEvent e = pending;
      has_pending = contacts.next(pending);
      if (has_pending) {
        // Cursor contract: contacts arrive in start-time order (a trace is
        // sorted by construction; a corrupt stream must not be folded in).
        DTN_CHECK_GE(pending.start, e.start);
        latest_contact_end = std::max(latest_contact_end, pending.end());
      }
      // Failure injection: missed contacts and down nodes never happen, as
      // far as anyone (including the rate estimator) can tell.
      if (config.contact_miss_prob > 0.0 &&
          failure_rng.bernoulli(config.contact_miss_prob)) {
        continue;
      }
      if (downtime.down(e.a, e.start) || downtime.down(e.b, e.start)) {
        continue;
      }
      estimator.record_contact(e.a, e.b, e.start);
      if (e.start >= phase_start && started) {
        DTN_SCOPED_TIMER(kContacts);
        DTN_COUNT(kContactsProcessed);
        services.set_now(e.start);
        LinkBudget budget(static_cast<Bytes>(
            e.duration * static_cast<double>(config.bandwidth_per_second)));
        scheme.on_contact(services, e.a, e.b, budget);
        ++result.contacts_processed;
      }
    }
  }

  // Final maintenance/sampling at the end of the timeline.
  const Time end_time =
      std::max({trace_end_hint, latest_contact_end, phase_start});
  services.set_now(end_time);
  scheme.on_end(services);
  return result;
}

}  // namespace dtn
