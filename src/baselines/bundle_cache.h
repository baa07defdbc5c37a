// BundleCache baseline (Sec. VI) — caching of pass-by bundles driven by the
// node contact pattern, adapted from the infrastructure-assisted setting of
// the original proposal to peer-to-peer data access: a relay admits a
// pass-by bundle only when its own contact centrality (how quickly it can
// reach the rest of the network) is high enough for caching there to reduce
// the expected access delay, and evicts by the smallest
// popularity x centrality utility. See DESIGN.md for the substitution note.
#pragma once

#include <vector>

#include "baselines/flooding_base.h"

namespace dtn {

/// A node may cache pass-by data only when its centrality is at least a
/// quarter of the current maximum across nodes.
class BundleCacheScheme : public FloodingSchemeBase {
 public:
  explicit BundleCacheScheme(FloodingConfig config);

  std::string name() const override { return "BundleCache"; }

  void on_maintenance(SimServices& services) override;

  /// Contact centrality of a node: mean opportunistic path weight from all
  /// other nodes (recomputed each maintenance tick). 0 before the first.
  double centrality(NodeId node) const;

 protected:
  void on_response_relayed(SimServices& services, NodeId relay,
                           const Query& query) override;
  bool admission_allowed(SimServices& services, NodeId node,
                         const DataItem& incoming) override;
  std::vector<DataId> eviction_order(SimServices& services, NodeId node,
                                     const DataItem& incoming) override;

 private:
  std::vector<double> centrality_;
  double max_centrality_ = 0.0;
};

}  // namespace dtn
