#include "sim/engine.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/instrument.h"
#include "common/parallel.h"
#include "graph/all_pairs.h"
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

/// A lane's queue ends before a tick or at this many events, whichever comes
/// first. Bounding it keeps a lane's memory flat between far-apart ticks;
/// the value changes no output.
constexpr std::size_t kLaneQueueEvents = 4096;

/// One event the schemes of a lane must see, in timeline order.
struct LaneEvent {
  enum class Kind : std::uint8_t { kTick, kWork, kContact };
  Kind kind = Kind::kTick;
  NodeId a = kNoNode;  ///< contact endpoints
  NodeId b = kNoNode;
  Time time = 0.0;
  /// Contact link budget in bytes, or the workload event index.
  std::int64_t value = 0;
};

/// One repetition's contact stream: failure injection, rate estimation and
/// the path table of each tick, computed once for all its schemes. Cells
/// hold its address, so it never moves.
class Lane {
 public:
  Lane(const ContactTrace& trace, const Workload& workload,
       std::uint64_t seed, const SimConfig& config)
      : contacts_(&trace.events()),
        workload_(&workload),
        // Failure injection uses its own stream so enabling it does not
        // perturb the schemes' random decisions.
        failure_rng_(seed ^ 0xFA11FA11FA11FA11ULL),
        estimator_(std::max<NodeId>(trace.node_count(), 2),
                   config.rate_decay) {
    // The data-access phase starts at the first workload event; maintenance
    // ticks start there too (the administrator has already selected NCLs
    // from warm-up data before the schemes were constructed).
    const auto& work = workload.events();
    const Time trace_end = trace.end_time();
    phase_start_ = work.empty() ? trace_end : work.front().time;
    end_time_ = std::max(trace_end, phase_start_);
    next_maintenance_ = phase_start_;
    queue_.reserve(kLaneQueueEvents);
  }

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  const Workload& workload() const { return *workload_; }
  const std::vector<LaneEvent>& queue() const { return queue_; }
  const std::shared_ptr<const AllPairsPaths>& paths() const { return paths_; }

  /// True once the stream is consumed: the current queue is the last.
  bool exhausted() const { return exhausted_; }

  /// When the final sampling happens (on_end): the latest contact end, or
  /// the phase start if the data phase begins after the trace.
  Time end_time() const { return end_time_; }

  /// Roots of the next tick's table, still to be built: 0 unless the last
  /// fill stopped before a tick.
  std::size_t pending_roots() const {
    return pending_ ? pending_->root_count() : 0;
  }

  /// Builds one root of the next tick's table. A task of the round's batch,
  /// beside the cells' replays: it reads only the pending graph and edge
  /// terms, and writes only its own slot.
  void build_root(std::size_t root) { pending_->build_root(root); }

  /// Replaces the queue with the next stretch of the timeline. If the last
  /// fill stopped before a tick, that tick's table (built by the batch in
  /// between) is published and the tick opens the queue. The queue then
  /// runs up to the next tick or kLaneQueueEvents events. At a tick it
  /// snapshots the rate estimates and leaves the table's roots to the next
  /// batch.
  void fill(const DowntimeIndex& downtime, const SimConfig& config) {
    queue_.clear();
    if (pending_) {
      paths_ = std::make_shared<const AllPairsPaths>(
          std::move(*pending_).finish());
      pending_.reset();
      queue_.push_back({LaneEvent::Kind::kTick, kNoNode, kNoNode,
                        next_maintenance_, 0});
      started_ = true;
      next_maintenance_ += config.maintenance_interval;
    }
    const auto& work = workload_->events();
    const auto& contacts = *contacts_;
    while (ci_ < contacts.size() || wi_ < work.size()) {
      const Time t_contact =
          ci_ < contacts.size() ? contacts[ci_].start : kNever;
      const Time t_work = wi_ < work.size() ? work[wi_].time : kNever;
      const Time t_next = std::min(t_contact, t_work);

      // A tick due before the next event ends the queue.
      if (next_maintenance_ <= t_next && next_maintenance_ != kNever) {
        pending_graph_ = estimator_.snapshot(next_maintenance_,
                                             config.min_contacts_for_rate);
        pending_.emplace(pending_graph_, config.path_horizon, config.max_hops);
        return;
      }

      // Workload events take precedence at equal times so that data exists
      // before a same-instant contact can push it.
      if (t_work <= t_contact) {
        queue_.push_back({LaneEvent::Kind::kWork, kNoNode, kNoNode, t_work,
                          static_cast<std::int64_t>(wi_++)});
      } else {
        const ContactEvent& e = contacts[ci_++];
        // Failure injection: missed contacts and down nodes never happen, as
        // far as anyone (including the rate estimator) can tell.
        if (config.contact_miss_prob > 0.0 &&
            failure_rng_.bernoulli(config.contact_miss_prob)) {
          continue;
        }
        if (downtime.down(e.a, e.start) || downtime.down(e.b, e.start)) {
          continue;
        }
        estimator_.record_contact(e.a, e.b, e.start);
        if (e.start >= phase_start_ && started_) {
          queue_.push_back(
              {LaneEvent::Kind::kContact, e.a, e.b, e.start,
               static_cast<Bytes>(
                   e.duration *
                   static_cast<double>(config.bandwidth_per_second))});
        }
      }
      if (queue_.size() == kLaneQueueEvents) return;
    }
    DTN_CHECK(!pending_, "lane exhausted its stream with a table pending");
    exhausted_ = true;
  }

 private:
  const std::vector<ContactEvent>* contacts_;  ///< sorted (ContactTrace)
  const Workload* workload_;
  Rng failure_rng_;
  RateEstimator estimator_;
  Time phase_start_ = 0.0;
  Time end_time_ = 0.0;
  Time next_maintenance_ = 0.0;
  bool started_ = false;
  bool exhausted_ = false;
  std::size_t ci_ = 0;  ///< next contact
  std::size_t wi_ = 0;  ///< next workload event
  /// The table of the tick that opens the queue. While a batch runs, the
  /// lane's schemes hold the previous one until they replay that tick, and
  /// the next tick's table is being built: at most three per lane.
  std::shared_ptr<const AllPairsPaths> paths_;
  /// The next tick's graph and build, between a fill that stops before the
  /// tick and the fill that publishes it.
  ContactGraph pending_graph_;
  std::optional<AllPairsBuild> pending_;
  std::vector<LaneEvent> queue_;
};

/// One (lane, scheme) pair: the scheme's own RNG stream, metrics and
/// services, fed by the lane's queues.
class Cell {
 public:
  Cell(const Lane& lane, Scheme& scheme, RunResult& result, std::uint64_t seed)
      : lane_(&lane),
        scheme_(&scheme),
        result_(&result),
        rng_(seed),
        services_(lane.workload().registry(), rng_, result.metrics) {
    result.metrics.set_data_count(lane.workload().data_count());
  }

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// True once on_end has run.
  bool done() const { return done_; }

  /// Replays the lane's current queue, then on_end after the last one.
  void replay() {
    const Workload& workload = lane_->workload();
    for (const LaneEvent& e : lane_->queue()) {
      switch (e.kind) {
        case LaneEvent::Kind::kTick:
          tick(e.time);
          break;
        case LaneEvent::Kind::kWork: {
          const WorkloadEvent& w =
              workload.events()[static_cast<std::size_t>(e.value)];
          services_.set_now(e.time);
          if (w.kind == WorkloadEvent::Kind::kDataGenerated) {
            scheme_->on_data_generated(services_,
                                       workload.registry().get(w.data));
          } else {
            result_->metrics.on_query_issued(w.query);
            scheme_->on_query(services_, w.query);
          }
          break;
        }
        case LaneEvent::Kind::kContact: {
          DTN_SCOPED_TIMER(kContacts);
          DTN_COUNT(kContactsProcessed);
          services_.set_now(e.time);
          LinkBudget budget(e.value);
          scheme_->on_contact(services_, e.a, e.b, budget);
          ++result_->contacts_processed;
          break;
        }
      }
    }
    if (lane_->exhausted()) {
      // Final maintenance/sampling at the end of the timeline.
      services_.set_now(lane_->end_time());
      scheme_->on_end(services_);
      done_ = true;
    }
  }

 private:
  void tick(Time now) {
    DTN_SCOPED_TIMER(kMaintenance);
    DTN_COUNT(kMaintenanceTicks);
    services_.set_now(now);
    services_.set_paths(lane_->paths());
    if (!started_) {
      scheme_->on_start(services_);
      started_ = true;
    }
    scheme_->on_maintenance(services_);
    const std::size_t alive = lane_->workload().registry().alive_count(now);
    if (alive > 0) {
      result_->metrics.sample_copy_count(
          static_cast<double>(scheme_->cached_copies(now)) /
          static_cast<double>(alive));
    }
    ++result_->maintenance_ticks;
  }

  const Lane* lane_;
  Scheme* scheme_;
  RunResult* result_;
  Rng rng_;
  SimServices services_;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace

/// The one event loop. Each round fills every unfinished lane's queue on the
/// calling thread, then runs one pool batch: every unfinished cell's replay,
/// then every root of every lane's next tick. A cell's hooks run in timeline
/// order, each tick with that tick's table, exactly as if its scheme ran
/// alone.
std::vector<std::vector<RunResult>> run_simulation(
    const ContactTrace& trace, const std::vector<SimLane>& lanes,
    const SimConfig& config) {
  validate_sim_config(config);
  for (const SimLane& lane : lanes) {
    if (lane.workload == nullptr) {
      throw std::invalid_argument("simulation lane without a workload");
    }
    for (const Scheme* scheme : lane.schemes) {
      if (scheme == nullptr) {
        throw std::invalid_argument("simulation lane with a null scheme");
      }
    }
  }
  DTN_SCOPED_TIMER(kSimulation);

  const DowntimeIndex downtime(config.node_downtime, trace.node_count());
  std::vector<std::vector<RunResult>> results(lanes.size());
  // Cells point into lanes and results, so neither may move.
  std::deque<Lane> lane_state;
  std::deque<Cell> cells;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (lanes[l].schemes.empty()) continue;
    const Lane& lane = lane_state.emplace_back(trace, *lanes[l].workload,
                                               lanes[l].seed, config);
    results[l].resize(lanes[l].schemes.size());
    for (std::size_t i = 0; i < lanes[l].schemes.size(); ++i) {
      cells.emplace_back(lane, *lanes[l].schemes[i], results[l][i],
                         lanes[l].seed);
    }
  }

  std::vector<Cell*> round;
  round.reserve(cells.size());
  std::vector<std::pair<Lane*, std::size_t>> roots;
  for (;;) {
    round.clear();
    for (Cell& cell : cells) {
      if (!cell.done()) round.push_back(&cell);
    }
    if (round.empty()) break;
    roots.clear();
    for (Lane& lane : lane_state) {
      if (!lane.exhausted()) lane.fill(downtime, config);
      for (std::size_t r = 0; r < lane.pending_roots(); ++r) {
        roots.emplace_back(&lane, r);
      }
    }
    // Cells first: they are the long items, and the pool hands items out
    // in index order.
    parallel_for(config.threads, round.size() + roots.size(),
                 [&](std::size_t i) {
                   if (i < round.size()) {
                     round[i]->replay();
                   } else {
                     const auto& [lane, root] = roots[i - round.size()];
                     lane->build_root(root);
                   }
                 });
  }
  return results;
}

RunResult run_simulation(const ContactTrace& trace, const Workload& workload,
                         Scheme& scheme, const SimConfig& config) {
  return std::move(
      run_simulation(trace, {SimLane{&workload, {&scheme}, config.seed}},
                     config)[0][0]);
}

}  // namespace dtn
