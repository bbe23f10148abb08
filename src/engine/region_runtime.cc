#include "engine/region_runtime.h"

#include <algorithm>

namespace recnet {
namespace {

// Second-level aggregate deltas (regionSizes -> largestRegion at node 0).
constexpr int kPortAggRoot = 4;

}  // namespace

RegionRuntime::RegionRuntime(std::shared_ptr<Substrate> substrate,
                             const SensorField& field,
                             const RuntimeOptions& options)
    // A sensor can belong to at most one partition slot per region; size
    // the per-node tables for the region count up front. Derived
    // activeRegion(r, y) tuples ship to sensor y.
    : RuntimeBase(std::move(substrate), field.num_sensors, options,
                  /*ship_dest_col=*/1, field.seed_sensors.size()),
      field_(field) {
  region_sizes_.resize(static_cast<size_t>(field_.num_sensors));
  seeds_of_.resize(static_cast<size_t>(field_.num_sensors));
  for (size_t r = 0; r < field_.seed_sensors.size(); ++r) {
    seeds_of_[static_cast<size_t>(field_.seed_sensors[r])].push_back(
        static_cast<int>(r));
  }
  for (auto& sizes : region_sizes_) {
    sizes = std::make_unique<GroupByAggregate>(
        std::vector<size_t>{0},
        std::vector<GroupAggSpec>{{GroupAggFn::kCount, 0}});
    sizes->Reserve(field_.seed_sensors.size());
  }
}

void RegionRuntime::Trigger(int sensor) {
  std::optional<bdd::Var> v = AddBaseFact(Tuple::OfInts({sensor}));
  if (!v.has_value()) return;  // Already triggered.
  Prov trig_pv = opts_.prov == ProvMode::kSet ? TrueProv() : VarProv(*v);
  // Base case: seed(r, sensor) ∧ isTriggered(sensor) -> active(r, sensor).
  for (int r : seeds_of_[static_cast<size_t>(sensor)]) {
    Send(sensor, sensor, kPortFix,
         Update::Insert(Tuple::OfInts({r, sensor}), trig_pv));
  }
  // Recursive case unblocked: existing memberships of this sensor can now
  // propagate to its proximity neighbors. Relative mode derives through a
  // reference to the membership tuple instead of its full annotation.
  for (const auto& [tuple, pv] : fix(sensor).contents()) {
    if (opts_.prov == ProvMode::kRelative) {
      ExpandFrom(sensor, tuple, RefProv(tuple).And(trig_pv));
    } else {
      ExpandFrom(sensor, tuple, pv.And(trig_pv));
    }
  }
}

bool RegionRuntime::Untrigger(int sensor) {
  std::vector<std::pair<Tuple, bdd::Var>> taken =
      TakeBaseFacts(Tuple::OfInts({sensor}));
  if (taken.empty()) return false;
  if (opts_.prov == ProvMode::kSet) {
    // DRed over-deletion: retract the seed memberships and everything this
    // sensor's trigger helped derive.
    for (int r : seeds_of_[static_cast<size_t>(sensor)]) {
      Send(sensor, sensor, kPortFix,
           Update::Delete(Tuple::OfInts({r, sensor})));
    }
    for (const auto& [tuple, pv] : fix(sensor).contents()) {
      int64_t region = tuple.IntAt(0);
      for (int nb : field_.neighbors[static_cast<size_t>(sensor)]) {
        Send(sensor, nb, kPortFix, Update::Delete(Tuple::OfInts({region, nb})));
      }
    }
    RequestRederivation();
    return true;
  }
  StartKill(sensor, {taken[0].second});
  return true;
}

bool RegionRuntime::IsTriggered(int sensor) const {
  return TriggerVar(sensor) != nullptr;
}

bool RegionRuntime::InRegion(int region, int sensor) const {
  return fix(sensor).Contains(Tuple::OfInts({region, sensor}));
}

std::set<int> RegionRuntime::RegionMembers(int region) const {
  std::set<int> out;
  for (int s = 0; s < field_.num_sensors; ++s) {
    if (InRegion(region, s)) out.insert(s);
  }
  return out;
}

const Prov* RegionRuntime::ViewProvenance(int region, int sensor) const {
  return fix(sensor).Lookup(Tuple::OfInts({region, sensor}));
}

int64_t RegionRuntime::RegionSize(int region) const {
  auto result = region_sizes_[static_cast<size_t>(AggOwner(region))]->Result(
      Tuple::OfInts({region}));
  return result.has_value() ? (*result)[0].AsInt() : 0;
}

int64_t RegionRuntime::LargestRegionSize() const {
  int64_t best = 0;
  for (const auto& [region, size] : sizes_at_root_) {
    best = std::max(best, size);
  }
  return best;
}

std::vector<int> RegionRuntime::LargestRegions() const {
  int64_t best = LargestRegionSize();
  std::vector<int> out;
  if (best == 0) return out;
  for (const auto& [region, size] : sizes_at_root_) {
    if (size == best) out.push_back(region);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RegionRuntime::ExpandFrom(LogicalNode x, const Tuple& active,
                               const Prov& pv) {
  if (pv.IsFalse()) return;
  int64_t region = active.IntAt(0);
  for (int nb : field_.neighbors[static_cast<size_t>(x)]) {
    Tuple derived = Tuple::OfInts({region, nb});
    if (opts_.prov == ProvMode::kSet) {
      Send(x, nb, kPortFix, Update::Insert(derived, pv));
    } else {
      ship(x).ProcessInsert(derived, pv);
    }
  }
}

void RegionRuntime::NotifyViewInsert(LogicalNode at, const Tuple& active) {
  LogViewDelta(active, /*added=*/true);
  LogicalNode owner = AggOwner(static_cast<int>(active.IntAt(0)));
  Send(at, owner, kPortAgg, Update::Insert(active, TrueProv()));
}

void RegionRuntime::OnViewRowRemoved(LogicalNode at, const Tuple& row) {
  LogViewDelta(row, /*added=*/false);
  LogicalNode owner = AggOwner(static_cast<int>(row.IntAt(0)));
  Send(at, owner, kPortAgg, Update::Delete(row));
}

void RegionRuntime::HandleActiveInsert(LogicalNode at, const Tuple& tuple,
                                       const Prov& pv) {
  Prov guarded = GuardIncoming(pv);
  if (guarded.IsFalse()) return;
  bool is_new = false;
  std::optional<Prov> delta = fix(at).ProcessInsert(tuple, guarded, &is_new);
  if (!delta.has_value()) return;
  if (is_new) NotifyViewInsert(at, tuple);
  const bdd::Var* trig = TriggerVar(at);
  if (trig == nullptr) return;
  Prov trig_pv = opts_.prov == ProvMode::kSet ? TrueProv() : VarProv(*trig);
  if (opts_.prov == ProvMode::kRelative) {
    // Derivation-edge model: neighbors reference this membership tuple;
    // only its first derivation expands.
    if (is_new) ExpandFrom(at, tuple, RefProv(tuple).And(trig_pv));
    return;
  }
  ExpandFrom(at, tuple, delta->And(trig_pv));
}

void RegionRuntime::HandleActiveDelete(LogicalNode at, const Tuple& tuple) {
  if (!fix(at).ProcessDelete(tuple)) return;
  OnViewRowRemoved(at, tuple);
  // Over-delete cascade: derivations through this member die too.
  if (TriggerVar(at) != nullptr) {
    int64_t region = tuple.IntAt(0);
    for (int nb : field_.neighbors[static_cast<size_t>(at)]) {
      Send(at, nb, kPortFix, Update::Delete(Tuple::OfInts({region, nb})));
    }
  }
}

void RegionRuntime::HandleBatch(const Envelope* envs, size_t n) {
  // The run shares one (dst, port): resolve the port dispatch once, then
  // apply the operator across the whole batch.
  LogicalNode at = envs[0].dst;
  switch (LocalPort(envs[0])) {
    case kPortFix:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          HandleActiveInsert(at, u.tuple, u.pv);
        } else {
          HandleActiveDelete(at, u.tuple);
        }
      }
      return;
    case kPortAgg: {
      // regionSizes aggregator for regions owned by this node.
      GroupByAggregate& sizes = *region_sizes_[static_cast<size_t>(at)];
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        Tuple group = Tuple::OfInts({u.tuple.IntAt(0)});
        auto before = sizes.Result(group);
        if (u.type == UpdateType::kInsert) {
          sizes.OnInsert(u.tuple);
        } else {
          sizes.OnDelete(u.tuple);
        }
        auto after = sizes.Result(group);
        int64_t old_size = before.has_value() ? (*before)[0].AsInt() : 0;
        int64_t new_size = after.has_value() ? (*after)[0].AsInt() : 0;
        if (old_size != new_size) {
          // Feed largestRegion at node 0 with the revised regionSizes row.
          Send(at, 0, kPortAggRoot,
               Update::Insert(Tuple::OfInts({u.tuple.IntAt(0), new_size}),
                              TrueProv()));
        }
      }
      return;
    }
    case kPortAggRoot:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        int region = static_cast<int>(u.tuple.IntAt(0));
        int64_t size = u.tuple.IntAt(1);
        if (size == 0) {
          sizes_at_root_.erase(region);
        } else {
          sizes_at_root_[region] = size;
        }
      }
      return;
    default:
      RECNET_CHECK(false);
  }
}

void RegionRuntime::SeedRederivation() {
  for (int x = 0; x < field_.num_sensors; ++x) {
    if (TriggerVar(x) == nullptr) continue;
    for (int r : seeds_of_[static_cast<size_t>(x)]) {
      Send(x, x, kPortFix, Update::Insert(Tuple::OfInts({r, x}), TrueProv()));
    }
    for (const auto& [tuple, pv] : fix(x).contents()) {
      ExpandFrom(x, tuple, TrueProv());
    }
  }
}

size_t RegionRuntime::RuleStateBytes() const {
  size_t bytes = 0;
  for (const auto& sizes : region_sizes_) bytes += sizes->StateSizeBytes();
  return bytes;
}

}  // namespace recnet
