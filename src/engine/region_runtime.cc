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
    : RuntimeBase(std::move(substrate), field.num_sensors, options),
      field_(field) {
  InitNodes();
}

void RegionRuntime::InitNodes() {
  nodes_.resize(static_cast<size_t>(field_.num_sensors));
  trig_var_.resize(static_cast<size_t>(field_.num_sensors));
  seeds_of_.resize(static_cast<size_t>(field_.num_sensors));
  for (size_t r = 0; r < field_.seed_sensors.size(); ++r) {
    seeds_of_[static_cast<size_t>(field_.seed_sensors[r])].push_back(
        static_cast<int>(r));
  }
  for (int n = 0; n < field_.num_sensors; ++n) {
    NodeState& state = nodes_[static_cast<size_t>(n)];
    state.fix = std::make_unique<Fixpoint>(opts_.prov);
    // A sensor can belong to at most one partition slot per region; size
    // the per-node tables for the region count up front.
    state.fix->Reserve(field_.seed_sensors.size());
    ShipMode ship_mode =
        opts_.prov == ProvMode::kSet ? ShipMode::kDirect : opts_.ship;
    state.ship = std::make_unique<MinShip>(
        opts_.prov, ship_mode, opts_.batch_window,
        [this, n](const Tuple& tuple, const Prov& pv) {
          LogicalNode dest = static_cast<LogicalNode>(tuple.IntAt(1));
          ShipInsert(n, dest, kPortFix, tuple, pv);
        });
    state.ship->Reserve(field_.seed_sensors.size());
    state.region_sizes = std::make_unique<GroupByAggregate>(
        std::vector<size_t>{0},
        std::vector<GroupAggSpec>{{GroupAggFn::kCount, 0}});
    state.region_sizes->Reserve(field_.seed_sensors.size());
  }
}

void RegionRuntime::Trigger(int sensor) {
  if (trig_var_[static_cast<size_t>(sensor)].has_value()) return;
  bdd::Var v = AllocVar();
  trig_var_[static_cast<size_t>(sensor)] = v;
  Prov trig_pv = opts_.prov == ProvMode::kSet ? TrueProv() : VarProv(v);
  // Base case: seed(r, sensor) ∧ isTriggered(sensor) -> active(r, sensor).
  for (int r : seeds_of_[static_cast<size_t>(sensor)]) {
    Send(sensor, sensor, kPortFix,
                 Update::Insert(Tuple::OfInts({r, sensor}), trig_pv));
  }
  // Recursive case unblocked: existing memberships of this sensor can now
  // propagate to its proximity neighbors. Relative mode derives through a
  // reference to the membership tuple instead of its full annotation.
  for (const auto& [tuple, pv] : node(sensor).fix->contents()) {
    if (opts_.prov == ProvMode::kRelative) {
      ExpandFrom(sensor, node(sensor), tuple, RefProv(tuple).And(trig_pv));
    } else {
      ExpandFrom(sensor, node(sensor), tuple, pv.And(trig_pv));
    }
  }
}

void RegionRuntime::Untrigger(int sensor) {
  auto& slot = trig_var_[static_cast<size_t>(sensor)];
  if (!slot.has_value()) return;
  bdd::Var v = *slot;
  slot.reset();
  if (opts_.prov == ProvMode::kSet) {
    // DRed over-deletion: retract the seed memberships and everything this
    // sensor's trigger helped derive.
    for (int r : seeds_of_[static_cast<size_t>(sensor)]) {
      Send(sensor, sensor, kPortFix,
                   Update::Delete(Tuple::OfInts({r, sensor})));
    }
    for (const auto& [tuple, pv] : node(sensor).fix->contents()) {
      int64_t region = tuple.IntAt(0);
      for (int nb : field_.neighbors[static_cast<size_t>(sensor)]) {
        Send(sensor, nb, kPortFix,
                     Update::Delete(Tuple::OfInts({region, nb})));
      }
    }
    rederive_pending_ = true;
    return;
  }
  StartKill(sensor, {v});
}

bool RegionRuntime::IsTriggered(int sensor) const {
  return trig_var_[static_cast<size_t>(sensor)].has_value();
}

bool RegionRuntime::InRegion(int region, int sensor) const {
  return node(sensor).fix->Contains(Tuple::OfInts({region, sensor}));
}

std::set<int> RegionRuntime::RegionMembers(int region) const {
  std::set<int> out;
  for (int s = 0; s < field_.num_sensors; ++s) {
    if (InRegion(region, s)) out.insert(s);
  }
  return out;
}

size_t RegionRuntime::ViewSize() const {
  size_t total = 0;
  for (const NodeState& state : nodes_) total += state.fix->size();
  return total;
}

const Prov* RegionRuntime::ViewProvenance(int region, int sensor) const {
  return node(sensor).fix->Lookup(Tuple::OfInts({region, sensor}));
}

std::optional<int> RegionRuntime::SensorOfVar(bdd::Var v) const {
  for (size_t s = 0; s < trig_var_.size(); ++s) {
    if (trig_var_[s].has_value() && *trig_var_[s] == v) {
      return static_cast<int>(s);
    }
  }
  return std::nullopt;
}

int64_t RegionRuntime::RegionSize(int region) const {
  auto result =
      node(AggOwner(region)).region_sizes->Result(Tuple::OfInts({region}));
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

void RegionRuntime::ExpandFrom(LogicalNode x, NodeState& state,
                               const Tuple& active, const Prov& pv) {
  if (pv.IsFalse()) return;
  int64_t region = active.IntAt(0);
  for (int nb : field_.neighbors[static_cast<size_t>(x)]) {
    Tuple derived = Tuple::OfInts({region, nb});
    if (opts_.prov == ProvMode::kSet) {
      Send(x, nb, kPortFix, Update::Insert(derived, pv));
    } else {
      state.ship->ProcessInsert(derived, pv);
    }
  }
}

void RegionRuntime::NotifyViewInsert(LogicalNode at, const Tuple& active) {
  LogViewDelta(active, /*added=*/true);
  LogicalNode owner = AggOwner(static_cast<int>(active.IntAt(0)));
  Send(at, owner, kPortAgg, Update::Insert(active, TrueProv()));
}

void RegionRuntime::NotifyViewDelete(LogicalNode at, const Tuple& active) {
  LogViewDelta(active, /*added=*/false);
  LogicalNode owner = AggOwner(static_cast<int>(active.IntAt(0)));
  Send(at, owner, kPortAgg, Update::Delete(active));
}

void RegionRuntime::HandleActiveInsert(LogicalNode at, NodeState& state,
                                       const Tuple& tuple, const Prov& pv) {
  Prov guarded = GuardIncoming(pv);
  if (guarded.IsFalse()) return;
  bool is_new = false;
  std::optional<Prov> delta = state.fix->ProcessInsert(tuple, guarded, &is_new);
  if (!delta.has_value()) return;
  if (is_new) NotifyViewInsert(at, tuple);
  const auto& trig = trig_var_[static_cast<size_t>(at)];
  if (!trig.has_value()) return;
  Prov trig_pv =
      opts_.prov == ProvMode::kSet ? TrueProv() : VarProv(*trig);
  if (opts_.prov == ProvMode::kRelative) {
    // Derivation-edge model: neighbors reference this membership tuple;
    // only its first derivation expands.
    if (is_new) ExpandFrom(at, state, tuple, RefProv(tuple).And(trig_pv));
    return;
  }
  ExpandFrom(at, state, tuple, delta->And(trig_pv));
}

void RegionRuntime::HandleActiveDelete(LogicalNode at, NodeState& state,
                                       const Tuple& tuple) {
  if (!state.fix->ProcessDelete(tuple)) return;
  NotifyViewDelete(at, tuple);
  // Over-delete cascade: derivations through this member die too.
  if (trig_var_[static_cast<size_t>(at)].has_value()) {
    int64_t region = tuple.IntAt(0);
    for (int nb : field_.neighbors[static_cast<size_t>(at)]) {
      Send(at, nb, kPortFix,
                   Update::Delete(Tuple::OfInts({region, nb})));
    }
  }
}

void RegionRuntime::HandleKill(LogicalNode at, NodeState& state,
                               const std::vector<bdd::Var>& killed) {
  std::vector<bdd::Var> fresh = AcceptKill(at, killed);
  if (fresh.empty()) return;
  Fixpoint::KillResult result = state.fix->ProcessKill(fresh);
  for (const Tuple& removed : result.removed) NotifyViewDelete(at, removed);
  state.ship->ProcessKill(fresh);
  if (opts_.prov == ProvMode::kRelative) {
    for (const Tuple& removed : result.removed) OnTupleRemoved(at, removed);
    relative_check_pending_ = true;
  }
}

void RegionRuntime::HandleBatch(const Envelope* envs, size_t n) {
  // The run shares one (dst, port): resolve the destination's operator
  // state and the port dispatch once, then apply the operator across the
  // whole batch.
  LogicalNode at = envs[0].dst;
  NodeState& state = node(at);
  switch (LocalPort(envs[0])) {
    case kPortFix:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          HandleActiveInsert(at, state, u.tuple, u.pv);
        } else {
          HandleActiveDelete(at, state, u.tuple);
        }
      }
      return;
    case kPortKill:
      for (size_t i = 0; i < n; ++i) {
        HandleKill(at, state, envs[i].update.killed);
      }
      return;
    case kPortAgg: {
      // regionSizes aggregator for regions owned by this node.
      GroupByAggregate& sizes = *state.region_sizes;
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
                       Update::Insert(
                           Tuple::OfInts({u.tuple.IntAt(0), new_size}),
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

uint64_t RegionRuntime::CountShipDemotions() const {
  uint64_t total = 0;
  for (LogicalNode n = 0; n < num_logical(); ++n) {
    total += node(n).ship->demotions();
  }
  return total;
}

bool RegionRuntime::AfterQuiescent() {
  // Demoted MinShips compact their buffers against the shipped state now
  // that the insert storm has drained (no traffic is generated).
  for (LogicalNode n = 0; n < num_logical(); ++n) {
    node(n).ship->FlushIfDemoted();
  }
  if (rederive_pending_) {
    rederive_pending_ = false;
    SeedRederivation();
    return true;
  }
  if (relative_check_pending_) {
    // Derivability traversal for cyclically self-supported memberships
    // (two adjacent triggered sensors keep each other in the region).
    relative_check_pending_ = false;
    std::vector<ViewEntry> view;
    for (LogicalNode n = 0; n < num_logical(); ++n) {
      for (const auto& [tuple, pv] : node(n).fix->contents()) {
        view.push_back(ViewEntry{n, &tuple, &pv});
      }
    }
    auto underivable = FindUnderivable(view);
    for (const auto& [owner, tuple] : underivable) {
      node(owner).fix->ProcessDelete(tuple);
      NotifyViewDelete(owner, tuple);
      OnTupleRemoved(owner, tuple);
    }
    return !underivable.empty();
  }
  return false;
}

void RegionRuntime::SeedRederivation() {
  for (int x = 0; x < field_.num_sensors; ++x) {
    if (!trig_var_[static_cast<size_t>(x)].has_value()) continue;
    for (int r : seeds_of_[static_cast<size_t>(x)]) {
      Send(x, x, kPortFix,
                   Update::Insert(Tuple::OfInts({r, x}), TrueProv()));
    }
    for (const auto& [tuple, pv] : node(x).fix->contents()) {
      ExpandFrom(x, node(x), tuple, TrueProv());
    }
  }
}

size_t RegionRuntime::StateSizeBytes() const {
  size_t bytes = 0;
  for (const NodeState& state : nodes_) {
    bytes += state.fix->StateSizeBytes() + state.ship->StateSizeBytes() +
             state.region_sizes->StateSizeBytes();
  }
  return bytes;
}

}  // namespace recnet
