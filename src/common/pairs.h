// Dense slots for the unordered node pairs {i, j} of an n-node network,
// in row-major upper-triangular order: row a holds (a, a+1) .. (a, n-1).
// The batch and EWMA rate estimators, the synthetic generator's pair rates
// and the daemon's dirty-pair flags all keep one slot per pair in this
// order.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "common/types.h"

namespace dtn {

/// Number of unordered pairs of n >= 0 nodes.
inline std::size_t pair_count(NodeId n) {
  const std::size_t m = static_cast<std::size_t>(n);
  return m * (m - 1) / 2;
}

/// Slot of the pair {i, j}, in [0, pair_count(n)). Aborts on a self pair
/// or a node outside [0, n): either would alias another pair's slot.
inline std::size_t pair_index(NodeId i, NodeId j, NodeId n) {
  DTN_CHECK(i != j, "a self pair has no slot");
  DTN_CHECK(i >= 0 && j >= 0 && i < n && j < n, "pair node out of range");
  const std::size_t a = static_cast<std::size_t>(std::min(i, j));
  const std::size_t b = static_cast<std::size_t>(std::max(i, j));
  const std::size_t m = static_cast<std::size_t>(n);
  return a * (2 * m - a - 1) / 2 + (b - a - 1);
}

/// Inverse of pair_index: the pair (a < b) stored at `index`.
inline void pair_nodes(std::size_t index, NodeId n, NodeId& a, NodeId& b) {
  DTN_CHECK(index < pair_count(n), "pair index out of range");
  const std::size_t m = static_cast<std::size_t>(n);
  std::size_t row = 0;
  std::size_t row_start = 0;
  while (row_start + (m - 1 - row) <= index) {
    row_start += m - 1 - row;
    ++row;
  }
  a = static_cast<NodeId>(row);
  b = static_cast<NodeId>(index - row_start + row + 1);
}

}  // namespace dtn
