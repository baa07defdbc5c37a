// Utility-based cache replacement (paper Sec. V-D).
//
// When two caching nodes meet, their cached data is pooled and re-assigned:
// the node closer to the central nodes (higher opportunistic path weight)
// picks first by solving the knapsack of Eq. 7; Algorithm 1 makes the pick
// probabilistic — an item chosen by the DP is actually cached only with
// probability equal to its utility, which throttles the number of copies of
// very popular data at global scope and leaves unpopular data a chance.
// The planner below is pure (no node state, explicit RNG), so the exchange
// logic is unit- and property-testable in isolation; the scheme applies the
// resulting plan under the link budget.
#pragma once

#include <vector>

#include "cache/knapsack.h"
#include "common/rng.h"
#include "common/types.h"

namespace dtn {

/// One pooled data item during an exchange between nodes A and B.
struct ReplacementItem {
  DataId id = kNoData;
  Bytes size = 0;
  double popularity = 0.0;  ///< w_i in [0, 1] (Eq. 6)
  /// True when the copy currently resides at node A (false: node B).
  bool at_a = true;
};

/// Knapsack capacity quantization (bytes) of the pure-knapsack selection.
inline constexpr Bytes kKnapsackUnit = 1 << 20;

/// Maximum probabilistic selection rounds per node (Algorithm 1 iterates
/// "multiple times ... to ensure that the caching buffer is fully
/// utilized"); afterwards a deterministic fill pass runs so items are never
/// dropped while space remains. The workspace planner stops early, once no
/// item has positive utility and fits (no later round can draw).
inline constexpr int kMaxSelectionRounds = 4;

struct ReplacementConfig {
  /// False disables the Bernoulli step (pure knapsack; ablation of
  /// Sec. V-D.3).
  bool probabilistic = true;
};

/// Where each pooled item ends up.
struct ReplacementPlan {
  std::vector<DataId> keep_at_a;
  std::vector<DataId> keep_at_b;
  std::vector<DataId> dropped;

  /// Items that changed holder (subset of keeps), with their sizes — the
  /// bytes the link must carry to realize the plan.
  std::vector<DataId> moved;
  Bytes moved_bytes = 0;
};

/// Computes the exchange between nodes A and B.
///  * capacity_a/b: total cache capacity available for pooled items.
///  * weight_a/b: the nodes' opportunistic path weights to their best
///    central node (p_A, p_B). The higher-weight node selects first, and
///    utilities are u_i = popularity_i * weight (Sec. V-D).
/// Duplicate data ids in the pool are not allowed.
///
/// This overload is the legacy allocating implementation, kept verbatim as
/// the oracle for the workspace form below (tests/property_test.cpp runs
/// both under identical RNG seeds and asserts identical plans).
ReplacementPlan plan_replacement(const std::vector<ReplacementItem>& pool,
                                 Bytes capacity_a, Bytes capacity_b,
                                 double weight_a, double weight_b,
                                 const ReplacementConfig& config, Rng& rng);

/// Reusable scratch for the allocation-free plan_replacement overload: all
/// per-call containers live here and retain capacity across exchanges.
struct ReplacementWorkspace {
  std::vector<std::size_t> available;
  std::vector<std::size_t> order;
  std::vector<std::size_t> rescued;
  std::vector<std::size_t> taken_a;
  std::vector<std::size_t> taken_b;
  std::vector<std::size_t> picks;
  std::vector<double> utilities;  ///< per pool index, for the active node
  std::vector<DataId> ids;        ///< duplicate-id validation scratch
  std::vector<KnapsackItem> knap_items;
  KnapsackWorkspace knapsack;
  KnapsackResult knap_result;
};

/// Allocation-free form: identical protocol decisions and — critically —
/// an identical RNG consumption sequence to the oracle overload above (the
/// per-round utility ordering is the same stable-descending permutation,
/// produced by an in-place insertion sort over precomputed utilities
/// instead of std::stable_sort's buffer-allocating merge). `out` is
/// cleared and refilled; its vectors retain capacity across calls.
void plan_replacement(const std::vector<ReplacementItem>& pool,
                      Bytes capacity_a, Bytes capacity_b, double weight_a,
                      double weight_b, const ReplacementConfig& config,
                      Rng& rng, ReplacementWorkspace& ws,
                      ReplacementPlan& out);

}  // namespace dtn
