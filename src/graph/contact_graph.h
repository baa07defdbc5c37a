// The network contact graph G(V, E) of Sec. III-B: nodes are mobile devices,
// an undirected edge (i, j) carries the pairwise Poisson contact rate
// lambda_ij estimated from cumulative contact history.
#pragma once

#include <vector>

#include "common/types.h"
#include "trace/trace.h"

namespace dtn {

/// Contacts a pair needs before it gets a rate. Two contacts give one
/// inter-contact gap, the sample the gap-based estimate of "Optimal
/// Forwarding in Opportunistic DTNs with Meeting Rate Estimations"
/// (PAPERS.md) needs; one contact carries no rate information. The
/// simulator's estimated graphs and the daemon's EWMA estimator both apply
/// this floor.
inline constexpr std::size_t kMinContactsForRate = 2;

/// Sparse undirected graph with per-edge contact rates (per second).
/// Invariant: adjacency is symmetric and rates are strictly positive.
class ContactGraph {
 public:
  struct Neighbor {
    NodeId node = kNoNode;
    double rate = 0.0;  // contacts per second
  };

  explicit ContactGraph(NodeId node_count = 0);

  NodeId node_count() const { return static_cast<NodeId>(adjacency_.size()); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds (or overwrites) the undirected edge i-j. rate must be > 0;
  /// i != j; both in range. Overwriting updates both directions.
  void set_rate(NodeId i, NodeId j, double rate);

  /// Removes the undirected edge i-j; returns false when absent. Needed by
  /// the daemon's estimator expiry (daemon/rate_estimator.h): an expired
  /// pair's rate goes to 0, which set_rate by design refuses to express.
  bool remove_edge(NodeId i, NodeId j);

  /// Rate of edge i-j, or 0 when absent.
  double rate(NodeId i, NodeId j) const;

  const std::vector<Neighbor>& neighbors(NodeId i) const;

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  std::size_t edge_count_ = 0;
};

/// Online estimator of pairwise contact rates.
///
/// Two modes:
///  * cumulative (paper, Sec. III-B): lambda_ij(t) = contacts in [0,t] / t
///    — "calculated at real-time from the cumulative contacts ... in a
///    time-average manner". Assumes long-term stable contact patterns.
///  * exponentially decaying (extension, decay > 0): each contact carries
///    weight e^{-(now - t_i)/decay}; lambda_ij(now) = decayed mass / decay.
///    Nodes that disappear (failures, churn) fade from the graph within a
///    few decay constants, letting dynamic NCL re-selection route around
///    them.
class RateEstimator {
 public:
  /// decay <= 0 selects the cumulative mode.
  explicit RateEstimator(NodeId node_count, Time decay = 0.0);

  /// Records one contact between i and j at time `when` (>= 0).
  void record_contact(NodeId i, NodeId j, Time when);

  /// Number of contacts observed for the pair so far.
  std::size_t contact_count(NodeId i, NodeId j) const;

  /// Current rate estimate at time `now` (> 0): count / now. Pairs never
  /// seen have rate 0.
  double rate(NodeId i, NodeId j, Time now) const;

  /// Snapshot of the full graph at time `now`; pairs with zero contacts are
  /// omitted. `min_contacts` filters out pairs seen fewer times (rates from
  /// one or two contacts are noisy; the paper's warm-up period exists
  /// precisely to let estimates converge).
  ContactGraph snapshot(Time now, std::size_t min_contacts = 1) const;

  NodeId node_count() const { return node_count_; }

  /// Active decay constant (0 = cumulative mode).
  Time decay() const { return decay_; }

 private:
  NodeId node_count_;
  Time decay_;
  std::vector<std::uint32_t> counts_;   // raw counts, one per pair_index
  std::vector<double> weights_;         // decayed mass (decay mode only)
  std::vector<Time> last_update_;       // per pair (decay mode only)
};

/// Builds a contact graph directly from a full trace over [0, horizon]
/// (horizon defaults to the trace end): the administrator's warm-up
/// computation. Pairs with fewer than `min_contacts` contacts are omitted.
ContactGraph build_contact_graph(const ContactTrace& trace,
                                 Time horizon = -1.0,
                                 std::size_t min_contacts = 1);

}  // namespace dtn
