#ifndef RECNET_ENGINE_REGION_RUNTIME_H_
#define RECNET_ENGINE_REGION_RUNTIME_H_

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "engine/runtime_base.h"
#include "operators/fixpoint.h"
#include "operators/group_by.h"
#include "topology/sensor_grid.h"

namespace recnet {

// Distributed maintenance of the paper's Query 3 (Largest Region): the
// recursive view activeRegion(rid, sensor) grows a contiguous region of
// triggered sensors outward from each seed, and the aggregate views
// regionSizes / largestRegion(s) are layered on top.
//
// Partitioning: activeRegion tuples live at the member sensor's node (one
// logical node per sensor, co-located onto physical peers). Region-size
// counts live at the node owning the region id; the global largest-region
// view lives at node 0. View membership changes ship count deltas upward,
// so aggregate traffic is part of the measured communication, as in the
// paper's region experiments (Figures 9-10).
//
// Rules (paper Query 3):
//   activeRegion(r, x) :- seed(r, x), isTriggered(x).           [pv = t_x]
//   activeRegion(r, y) :- activeRegion(r, x), isTriggered(x),
//                         distance(x, y) < k.                   [pv ∧ t_x]
class RegionRuntime : public RuntimeBase {
 public:
  // The view spans the field's sensors; unlike the graph runtimes it is
  // deployment-bound and does not extend when the session topology grows.
  RegionRuntime(std::shared_ptr<Substrate> substrate, const SensorField& field,
                const RuntimeOptions& options);

  // Marks sensor as triggered / untriggered (inserts or deletes the
  // isTriggered(sensor) base fact). Call Run() to propagate.
  void Trigger(int sensor);
  void Untrigger(int sensor);
  bool IsTriggered(int sensor) const;

  // --- View access ----------------------------------------------------------

  bool InRegion(int region, int sensor) const;
  std::set<int> RegionMembers(int region) const;
  size_t ViewSize() const;

  // regionSizes(region): current member count, from the distributed count
  // view (0 when the region is empty).
  int64_t RegionSize(int region) const;
  // largestRegion(): max over regionSizes; 0 when all regions are empty.
  int64_t LargestRegionSize() const;
  // largestRegions(): regions whose size equals the maximum.
  std::vector<int> LargestRegions() const;

  int num_regions() const { return static_cast<int>(field_.seed_sensors.size()); }

  // Provenance annotation of activeRegion(region, sensor), if present
  // (provenance modes only); supports "why is this sensor in the region"
  // witnesses.
  const Prov* ViewProvenance(int region, int sensor) const;

  // Reverse-maps a base variable to the live isTriggered(sensor) fact it
  // annotates (for rendering provenance witnesses).
  std::optional<int> SensorOfVar(bdd::Var v) const;

  // Snapshot round-trip (see RuntimeBase::SaveState): appends the trigger
  // variables, the aggregate views, and every sensor node's operator state.
  // Defined in engine/runtime_persist.cc.
  void SaveState(persist::SnapshotWriter& w) const override;
  Status LoadState(persist::SnapshotReader& r) override;

 protected:
  // Vectorized delivery: one (dst, port) switch and node-state lookup per
  // run, with the operator applied across the whole batch.
  void HandleBatch(const Envelope* envs, size_t n) override;
  bool AfterQuiescent() override;
  uint64_t CountShipDemotions() const override;
  size_t StateSizeBytes() const override;

 private:
  struct NodeState {
    std::unique_ptr<Fixpoint> fix;
    std::unique_ptr<MinShip> ship;
    // Aggregator state for regions owned by this node: region -> count.
    std::unique_ptr<GroupByAggregate> region_sizes;
  };

  NodeState& node(LogicalNode n) { return nodes_[static_cast<size_t>(n)]; }
  const NodeState& node(LogicalNode n) const {
    return nodes_[static_cast<size_t>(n)];
  }

  // Builds the per-sensor operator pipelines (shared by both ctors).
  void InitNodes();

  LogicalNode AggOwner(int region) const {
    return static_cast<LogicalNode>(region % num_logical());
  }

  // The handlers take the destination's NodeState, resolved once per
  // delivery batch rather than once per envelope.
  void HandleActiveInsert(LogicalNode at, NodeState& state, const Tuple& tuple,
                          const Prov& pv);
  void HandleActiveDelete(LogicalNode at, NodeState& state,
                          const Tuple& tuple);
  void HandleKill(LogicalNode at, NodeState& state,
                  const std::vector<bdd::Var>& killed);
  // Derives neighbors of x from activeRegion(r, x), given x is triggered.
  void ExpandFrom(LogicalNode x, NodeState& state, const Tuple& active,
                  const Prov& pv);
  void NotifyViewInsert(LogicalNode at, const Tuple& active);
  void NotifyViewDelete(LogicalNode at, const Tuple& active);
  void SeedRederivation();

  SensorField field_;
  std::vector<NodeState> nodes_;
  // Trigger fact variable per sensor (nullopt = not triggered).
  std::vector<std::optional<bdd::Var>> trig_var_;
  // seeds_of_[x] = region ids whose main sensor is x.
  std::vector<std::vector<int>> seeds_of_;
  // Node 0's largestRegion state: region -> size.
  std::unordered_map<int, int64_t> sizes_at_root_;
  bool rederive_pending_ = false;
  // Set by parallel shard workers in HandleKill, consumed at quiescence.
  std::atomic<bool> relative_check_pending_{false};
};

}  // namespace recnet

#endif  // RECNET_ENGINE_REGION_RUNTIME_H_
