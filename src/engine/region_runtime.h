#ifndef RECNET_ENGINE_REGION_RUNTIME_H_
#define RECNET_ENGINE_REGION_RUNTIME_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "engine/runtime_base.h"
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
  // isTriggered(sensor) base fact, keyed as the 1-tuple (sensor)). Untrigger
  // returns false when the sensor was not triggered. Call Run() to
  // propagate.
  void Trigger(int sensor);
  bool Untrigger(int sensor);
  bool IsTriggered(int sensor) const;

  // --- View access ----------------------------------------------------------

  bool InRegion(int region, int sensor) const;
  std::set<int> RegionMembers(int region) const;

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

  // Snapshot round-trip (see RuntimeBase::SaveState): appends the aggregate
  // views. Defined in engine/runtime_persist.cc.
  void SaveState(persist::SnapshotWriter& w) const override;
  Status LoadState(persist::SnapshotReader& r) override;

 protected:
  // Vectorized delivery: one (dst, port) switch per run, with the operator
  // applied across the whole batch.
  void HandleBatch(const Envelope* envs, size_t n) override;
  // A membership leaving the view also leaves its region's count.
  void OnViewRowRemoved(LogicalNode at, const Tuple& row) override;
  void SeedRederivation() override;
  size_t RuleStateBytes() const override;

 private:
  LogicalNode AggOwner(int region) const {
    return static_cast<LogicalNode>(region % num_logical());
  }

  // The base variable of isTriggered(sensor), or nullptr.
  const bdd::Var* TriggerVar(int sensor) const {
    return BaseVar(Tuple::OfInts({sensor}));
  }

  void HandleActiveInsert(LogicalNode at, const Tuple& tuple, const Prov& pv);
  void HandleActiveDelete(LogicalNode at, const Tuple& tuple);
  // Derives neighbors of x from activeRegion(r, x), given x is triggered.
  void ExpandFrom(LogicalNode x, const Tuple& active, const Prov& pv);
  void NotifyViewInsert(LogicalNode at, const Tuple& active);

  SensorField field_;
  // Per sensor node: regionSizes state for the regions it owns
  // (region -> count).
  std::vector<std::unique_ptr<GroupByAggregate>> region_sizes_;
  // seeds_of_[x] = region ids whose main sensor is x.
  std::vector<std::vector<int>> seeds_of_;
  // Node 0's largestRegion state: region -> size.
  std::unordered_map<int, int64_t> sizes_at_root_;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_REGION_RUNTIME_H_
