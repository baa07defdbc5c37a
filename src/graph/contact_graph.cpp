#include "graph/contact_graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/pairs.h"

namespace dtn {

ContactGraph::ContactGraph(NodeId node_count)
    : adjacency_(static_cast<std::size_t>(node_count)) {
  if (node_count < 0) throw std::invalid_argument("negative node count");
}

void ContactGraph::set_rate(NodeId i, NodeId j, double rate) {
  if (i == j) throw std::invalid_argument("self-edge");
  if (i < 0 || j < 0 || i >= node_count() || j >= node_count()) {
    throw std::invalid_argument("node id out of range");
  }
  if (!(rate > 0.0)) throw std::invalid_argument("rate must be > 0");

  auto update_direction = [&](NodeId from, NodeId to) -> bool {
    auto& list = adjacency_[static_cast<std::size_t>(from)];
    for (auto& nb : list) {
      if (nb.node == to) {
        nb.rate = rate;
        return false;  // existing edge updated
      }
    }
    list.push_back({to, rate});
    return true;
  };
  const bool inserted = update_direction(i, j);
  update_direction(j, i);
  if (inserted) ++edge_count_;
}

bool ContactGraph::remove_edge(NodeId i, NodeId j) {
  if (i == j) throw std::invalid_argument("self-edge");
  if (i < 0 || j < 0 || i >= node_count() || j >= node_count()) {
    throw std::invalid_argument("node id out of range");
  }
  auto erase_direction = [&](NodeId from, NodeId to) -> bool {
    auto& list = adjacency_[static_cast<std::size_t>(from)];
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->node == to) {
        list.erase(it);
        return true;
      }
    }
    return false;
  };
  const bool removed = erase_direction(i, j);
  erase_direction(j, i);
  if (removed) --edge_count_;
  return removed;
}

double ContactGraph::rate(NodeId i, NodeId j) const {
  if (i < 0 || j < 0 || i >= node_count() || j >= node_count() || i == j) {
    return 0.0;
  }
  for (const auto& nb : adjacency_[static_cast<std::size_t>(i)]) {
    if (nb.node == j) return nb.rate;
  }
  return 0.0;
}

const std::vector<ContactGraph::Neighbor>& ContactGraph::neighbors(NodeId i) const {
  return adjacency_.at(static_cast<std::size_t>(i));
}

RateEstimator::RateEstimator(NodeId node_count, Time decay)
    : node_count_(node_count), decay_(decay > 0.0 ? decay : 0.0) {
  if (node_count < 2) throw std::invalid_argument("need at least 2 nodes");
  const std::size_t pairs = pair_count(node_count);
  counts_.assign(pairs, 0);
  if (decay_ > 0.0) {
    weights_.assign(pairs, 0.0);
    last_update_.assign(pairs, 0.0);
  }
}

void RateEstimator::record_contact(NodeId i, NodeId j, Time when) {
  if (when < 0.0) throw std::invalid_argument("negative contact time");
  const std::size_t k = pair_index(i, j, node_count_);
  ++counts_[k];
  if (decay_ > 0.0) {
    const Time elapsed = std::max(0.0, when - last_update_[k]);
    weights_[k] = weights_[k] * std::exp(-elapsed / decay_) + 1.0;
    last_update_[k] = std::max(last_update_[k], when);
  }
}

std::size_t RateEstimator::contact_count(NodeId i, NodeId j) const {
  return counts_[pair_index(i, j, node_count_)];
}

double RateEstimator::rate(NodeId i, NodeId j, Time now) const {
  if (!(now > 0.0)) return 0.0;
  const std::size_t k = pair_index(i, j, node_count_);
  if (decay_ > 0.0) {
    const Time elapsed = std::max(0.0, now - last_update_[k]);
    return weights_[k] * std::exp(-elapsed / decay_) / decay_;
  }
  return static_cast<double>(counts_[k]) / now;
}

ContactGraph RateEstimator::snapshot(Time now, std::size_t min_contacts) const {
  ContactGraph graph(node_count_);
  if (!(now > 0.0)) return graph;
  for (NodeId i = 0; i < node_count_; ++i) {
    for (NodeId j = i + 1; j < node_count_; ++j) {
      const std::size_t k = pair_index(i, j, node_count_);
      if (counts_[k] < std::max<std::size_t>(min_contacts, 1)) continue;
      const double r = rate(i, j, now);
      if (r > 0.0) graph.set_rate(i, j, r);
    }
  }
  return graph;
}

ContactGraph build_contact_graph(const ContactTrace& trace, Time horizon,
                                 std::size_t min_contacts) {
  if (horizon < 0.0) horizon = trace.end_time();
  RateEstimator estimator(std::max<NodeId>(trace.node_count(), 2));
  for (const auto& e : trace.events()) {
    if (e.start > horizon) break;  // events are sorted by start
    estimator.record_contact(e.a, e.b, e.start);
  }
  return estimator.snapshot(horizon, min_contacts);
}

}  // namespace dtn
