#include "cache/replacement.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "cache/knapsack.h"
#include "common/check.h"
#include "common/instrument.h"

namespace dtn {
namespace {

/// Selection state of one node during an exchange.
struct NodeSelection {
  std::vector<std::size_t> taken;  ///< indices into the pool
  Bytes free = 0;
  double weight = 0.0;  ///< p_X to the central (utility factor)
  bool is_a = false;
};

double utility_of(const ReplacementItem& item, const NodeSelection& node) {
  const double u = item.popularity * node.weight;
  // u_i = w_i * p_X(central): a product of two probabilities (Sec. V-D),
  // also the Bernoulli parameter of Algorithm 1's probabilistic caching.
  DTN_CHECK_PROB(u);
  return u;
}

/// Primary selection for one node following Algorithm 1: in each round,
/// walk the remaining items in decreasing utility order (the paper's
/// repeated argmax over S') and cache each with probability u_i; rounds
/// repeat so the buffer tends towards full utilization, yet a popular item
/// can lose its slot to the next-best item — the global copy-control
/// effect of Sec. V-D.3. With `probabilistic` disabled this is the pure
/// knapsack of Eq. 7 instead.
void primary_select(const std::vector<ReplacementItem>& pool,
                    std::vector<std::size_t>& available, NodeSelection& node,
                    const ReplacementConfig& config, Rng& rng) {
  auto smallest_fits = [&]() {
    for (std::size_t idx : available) {
      if (pool[idx].size <= node.free) return true;
    }
    return false;
  };
  auto take = [&](std::size_t idx) {
    node.taken.push_back(idx);
    node.free -= pool[idx].size;
    // Algorithm 1 only caches items that fit, so the running free-space
    // budget can never go negative.
    DTN_CHECK_GE(node.free, 0);
    available.erase(std::find(available.begin(), available.end(), idx));
  };

  if (config.probabilistic) {
    for (int round = 0; round < config.max_rounds; ++round) {
      if (available.empty() || !smallest_fits()) break;
      std::vector<std::size_t> order = available;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t x, std::size_t y) {
                         return utility_of(pool[x], node) >
                                utility_of(pool[y], node);
                       });
      for (std::size_t idx : order) {
        if (pool[idx].size > node.free) continue;
        if (rng.bernoulli(utility_of(pool[idx], node))) take(idx);
      }
    }
    return;
  }

  if (available.empty() || !smallest_fits()) return;
  std::vector<KnapsackItem> items;
  items.reserve(available.size());
  for (std::size_t idx : available) {
    items.push_back({utility_of(pool[idx], node), pool[idx].size});
  }
  const KnapsackResult dp =
      solve_knapsack(items, node.free, config.knapsack_unit);
  std::vector<std::size_t> picks;
  picks.reserve(dp.selected.size());
  for (std::size_t k : dp.selected) picks.push_back(available[k]);
  for (std::size_t idx : picks) {
    if (pool[idx].size <= node.free) take(idx);
  }
}

}  // namespace

ReplacementPlan plan_replacement(const std::vector<ReplacementItem>& pool,
                                 Bytes capacity_a, Bytes capacity_b,
                                 double weight_a, double weight_b,
                                 const ReplacementConfig& config, Rng& rng) {
  if (capacity_a < 0 || capacity_b < 0) {
    throw std::invalid_argument("negative capacity");
  }
  DTN_SCOPED_TIMER(kReplacementPlan);
  DTN_COUNT(kReplacementPlans);
  DTN_COUNT_N(kReplacementItemsPooled, pool.size());
  {
    std::unordered_set<DataId> ids;
    for (const auto& item : pool) {
      if (item.size <= 0) throw std::invalid_argument("item size must be > 0");
      if (!ids.insert(item.id).second) {
        throw std::invalid_argument("duplicate data id in replacement pool");
      }
    }
  }

  std::vector<std::size_t> available(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) available[i] = i;

  NodeSelection sel_a{{}, capacity_a, weight_a, true};
  NodeSelection sel_b{{}, capacity_b, weight_b, false};

  // The node nearer the central picks first (Sec. V-D.2).
  NodeSelection& first = weight_a >= weight_b ? sel_a : sel_b;
  NodeSelection& second = weight_a >= weight_b ? sel_b : sel_a;
  primary_select(pool, available, first, config, rng);
  primary_select(pool, available, second, config, rng);

  // Anti-drop pass, after BOTH primaries: an item nobody claimed returns
  // to its resident node when space remains there, or crosses to the peer
  // when only the peer has room; it is dropped only when neither fits.
  // (Running this inside the first selector's pass would let a full node
  // silently re-take everything and never cede buffer space to its
  // neighbourhood.) Higher-utility items are rescued first.
  if (!available.empty()) {
    std::vector<std::size_t> order = available;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (pool[x].popularity != pool[y].popularity) {
        return pool[x].popularity > pool[y].popularity;
      }
      return pool[x].size < pool[y].size;
    });
    std::vector<std::size_t> rescued;
    for (std::size_t idx : order) {
      NodeSelection& resident = pool[idx].at_a ? sel_a : sel_b;
      NodeSelection& other = pool[idx].at_a ? sel_b : sel_a;
      if (pool[idx].size <= resident.free) {
        resident.taken.push_back(idx);
        resident.free -= pool[idx].size;
        rescued.push_back(idx);
      } else if (pool[idx].size <= other.free) {
        other.taken.push_back(idx);
        other.free -= pool[idx].size;
        rescued.push_back(idx);
      }
    }
    for (std::size_t idx : rescued) {
      available.erase(std::find(available.begin(), available.end(), idx));
    }
  }

  ReplacementPlan plan;
  auto record = [&](const NodeSelection& node) {
    for (std::size_t idx : node.taken) {
      const ReplacementItem& item = pool[idx];
      (node.is_a ? plan.keep_at_a : plan.keep_at_b).push_back(item.id);
      if (item.at_a != node.is_a) {
        plan.moved.push_back(item.id);
        plan.moved_bytes += item.size;
      }
    }
  };
  record(sel_a);
  record(sel_b);
  for (std::size_t idx : available) plan.dropped.push_back(pool[idx].id);

  // Eq. 7 / Algorithm 1 contract: the plan is a partition of the pooled
  // items — every item is kept at A, kept at B, or explicitly dropped — and
  // neither node's selection exceeds its capacity.
  DTN_CHECK(plan.keep_at_a.size() + plan.keep_at_b.size() +
                    plan.dropped.size() ==
                pool.size(),
            "replacement plan preserves the union of pooled items");
  DTN_CHECK_GE(sel_a.free, 0);
  DTN_CHECK_GE(sel_b.free, 0);
  return plan;
}

namespace {

/// Stable insertion sort of ws-order indices, descending by precomputed
/// utility. Produces the unique stable-descending permutation — the same
/// one std::stable_sort yields in the oracle overload — without the merge
/// buffer stable_sort allocates per round.
void sort_by_utility_desc(std::vector<std::size_t>& order,
                          const std::vector<double>& utilities) {
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t key = order[i];
    std::size_t j = i;
    while (j > 0 && utilities[order[j - 1]] < utilities[key]) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = key;
  }
}

/// Workspace twin of primary_select: identical decisions, identical RNG
/// consumption sequence. `utilities` must already hold u_i for this node.
void primary_select_ws(const std::vector<ReplacementItem>& pool,
                       ReplacementWorkspace& ws,
                       std::vector<std::size_t>& taken, Bytes& free,
                       const ReplacementConfig& config, Rng& rng) {
  auto take = [&](std::size_t idx) {
    taken.push_back(idx);
    free -= pool[idx].size;
    // Algorithm 1 only caches items that fit, so the running free-space
    // budget can never go negative.
    DTN_CHECK_GE(free, 0);
    ws.available.erase(
        std::find(ws.available.begin(), ws.available.end(), idx));
  };

  if (config.probabilistic) {
    for (int round = 0; round < config.max_rounds; ++round) {
      // Only items with positive utility that fit now can act in a round
      // (bernoulli(0) draws nothing; free space only shrinks), and their
      // stable order is the oracle's restricted to them. A round with none
      // takes and draws nothing, and so would every later one.
      ws.order.clear();
      for (std::size_t idx : ws.available) {
        if (ws.utilities[idx] > 0.0 && pool[idx].size <= free) {
          ws.order.push_back(idx);
        }
      }
      if (ws.order.empty()) break;
      sort_by_utility_desc(ws.order, ws.utilities);
      for (std::size_t idx : ws.order) {
        if (pool[idx].size > free) continue;
        if (rng.bernoulli(ws.utilities[idx])) take(idx);
      }
    }
    return;
  }

  if (std::none_of(ws.available.begin(), ws.available.end(),
                   [&](std::size_t idx) { return pool[idx].size <= free; })) {
    return;
  }
  ws.knap_items.clear();
  for (std::size_t idx : ws.available) {
    ws.knap_items.push_back({ws.utilities[idx], pool[idx].size});
  }
  solve_knapsack(ws.knap_items, free, config.knapsack_unit, ws.knapsack,
                 ws.knap_result);
  ws.picks.clear();
  for (std::size_t k : ws.knap_result.selected) {
    ws.picks.push_back(ws.available[k]);
  }
  for (std::size_t idx : ws.picks) {
    if (pool[idx].size <= free) take(idx);
  }
}

}  // namespace

void plan_replacement(const std::vector<ReplacementItem>& pool,
                      Bytes capacity_a, Bytes capacity_b, double weight_a,
                      double weight_b, const ReplacementConfig& config,
                      Rng& rng, ReplacementWorkspace& ws,
                      ReplacementPlan& out) {
  if (capacity_a < 0 || capacity_b < 0) {
    throw std::invalid_argument("negative capacity");
  }
  DTN_SCOPED_TIMER(kReplacementPlan);
  DTN_COUNT(kReplacementPlans);
  DTN_COUNT_N(kReplacementItemsPooled, pool.size());
  ws.ids.clear();
  for (const auto& item : pool) {
    if (item.size <= 0) throw std::invalid_argument("item size must be > 0");
    ws.ids.push_back(item.id);
  }
  std::sort(ws.ids.begin(), ws.ids.end());
  if (std::adjacent_find(ws.ids.begin(), ws.ids.end()) != ws.ids.end()) {
    throw std::invalid_argument("duplicate data id in replacement pool");
  }

  ws.available.resize(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) ws.available[i] = i;
  ws.taken_a.clear();
  ws.taken_b.clear();
  Bytes free_a = capacity_a;
  Bytes free_b = capacity_b;

  // The node nearer the central picks first (Sec. V-D.2). Utilities are
  // precomputed per node: utility_of is pure in (item, weight), so the
  // values — and the DTN_CHECK_PROB contract on them — match the oracle's
  // per-comparison evaluations exactly.
  auto fill_utilities = [&](double weight) {
    ws.utilities.resize(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const double u = pool[i].popularity * weight;
      DTN_CHECK_PROB(u);
      ws.utilities[i] = u;
    }
  };
  const bool a_first = weight_a >= weight_b;
  fill_utilities(a_first ? weight_a : weight_b);
  primary_select_ws(pool, ws, a_first ? ws.taken_a : ws.taken_b,
                    a_first ? free_a : free_b, config, rng);
  fill_utilities(a_first ? weight_b : weight_a);
  primary_select_ws(pool, ws, a_first ? ws.taken_b : ws.taken_a,
                    a_first ? free_b : free_a, config, rng);

  // Anti-drop pass, after BOTH primaries (see the oracle overload for the
  // rationale). Higher-utility items are rescued first.
  if (!ws.available.empty()) {
    ws.order.assign(ws.available.begin(), ws.available.end());
    // Stable insertion sort: popularity descending, then size ascending —
    // the oracle's stable_sort comparator.
    for (std::size_t i = 1; i < ws.order.size(); ++i) {
      const std::size_t key = ws.order[i];
      std::size_t j = i;
      auto before = [&](std::size_t x, std::size_t y) {
        if (pool[x].popularity != pool[y].popularity) {
          return pool[x].popularity > pool[y].popularity;
        }
        return pool[x].size < pool[y].size;
      };
      while (j > 0 && before(key, ws.order[j - 1])) {
        ws.order[j] = ws.order[j - 1];
        --j;
      }
      ws.order[j] = key;
    }
    ws.rescued.clear();
    for (std::size_t idx : ws.order) {
      std::vector<std::size_t>& resident =
          pool[idx].at_a ? ws.taken_a : ws.taken_b;
      std::vector<std::size_t>& other =
          pool[idx].at_a ? ws.taken_b : ws.taken_a;
      Bytes& resident_free = pool[idx].at_a ? free_a : free_b;
      Bytes& other_free = pool[idx].at_a ? free_b : free_a;
      if (pool[idx].size <= resident_free) {
        resident.push_back(idx);
        resident_free -= pool[idx].size;
        ws.rescued.push_back(idx);
      } else if (pool[idx].size <= other_free) {
        other.push_back(idx);
        other_free -= pool[idx].size;
        ws.rescued.push_back(idx);
      }
    }
    for (std::size_t idx : ws.rescued) {
      ws.available.erase(
          std::find(ws.available.begin(), ws.available.end(), idx));
    }
  }

  out.keep_at_a.clear();
  out.keep_at_b.clear();
  out.dropped.clear();
  out.moved.clear();
  out.moved_bytes = 0;
  auto record = [&](const std::vector<std::size_t>& taken, bool is_a) {
    for (std::size_t idx : taken) {
      const ReplacementItem& item = pool[idx];
      (is_a ? out.keep_at_a : out.keep_at_b).push_back(item.id);
      if (item.at_a != is_a) {
        out.moved.push_back(item.id);
        out.moved_bytes += item.size;
      }
    }
  };
  record(ws.taken_a, true);
  record(ws.taken_b, false);
  for (std::size_t idx : ws.available) out.dropped.push_back(pool[idx].id);

  // Eq. 7 / Algorithm 1 contract: the plan is a partition of the pooled
  // items — every item is kept at A, kept at B, or explicitly dropped — and
  // neither node's selection exceeds its capacity.
  DTN_CHECK(out.keep_at_a.size() + out.keep_at_b.size() +
                    out.dropped.size() ==
                pool.size(),
            "replacement plan preserves the union of pooled items");
  DTN_CHECK_GE(free_a, 0);
  DTN_CHECK_GE(free_b, 0);
}

}  // namespace dtn
