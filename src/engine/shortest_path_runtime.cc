#include "engine/shortest_path_runtime.h"

#include <limits>

namespace recnet {
namespace {

// path tuple layout: (src, dst, vec, cost, length).
constexpr size_t kSrc = 0;
constexpr size_t kDst = 1;
constexpr size_t kVec = 2;
constexpr size_t kCost = 3;
constexpr size_t kLen = 4;

Tuple MakePath(int64_t src, int64_t dst, std::string vec, double cost,
               int64_t len) {
  Tuple::Values values;
  values.reserve(5);
  values.emplace_back(src);
  values.emplace_back(dst);
  values.emplace_back(std::move(vec));
  values.emplace_back(cost);
  values.emplace_back(len);
  return Tuple(std::move(values));
}

// The base fact link(src, dst, cost).
Tuple LinkFact(int64_t src, int64_t dst, double cost) {
  Tuple::Values values;
  values.reserve(3);
  values.emplace_back(src);
  values.emplace_back(dst);
  values.emplace_back(cost);
  return Tuple(std::move(values));
}

// link(x, z, c0) ⋈ path(z, y, vec, c1, l1)
//   -> path(x, y, x|'.'|vec, c0+c1, l1+1)            (paper Query 2)
Tuple CombineLinkPath(const Tuple& link, const Tuple& path) {
  return MakePath(link.IntAt(0), path.IntAt(kDst),
                  std::to_string(link.IntAt(0)) + "." + path.StringAt(kVec),
                  link.DoubleAt(2) + path.DoubleAt(kCost),
                  path.IntAt(kLen) + 1);
}

}  // namespace

const char* AggSelPolicyName(AggSelPolicy policy) {
  switch (policy) {
    case AggSelPolicy::kMulti:
      return "multi";
    case AggSelPolicy::kCost:
      return "cost";
    case AggSelPolicy::kHops:
      return "hops";
    case AggSelPolicy::kNone:
      return "none";
  }
  return "?";
}

ShortestPathRuntime::ShortestPathRuntime(std::shared_ptr<Substrate> substrate,
                                         int num_nodes,
                                         const RuntimeOptions& options,
                                         AggSelPolicy policy)
    // Aggregate selection prunes the path view towards one surviving tuple
    // per (src, dst); size the operator tables for that bound up front.
    // Derived path(x, ...) tuples ship to node x.
    : RuntimeBase(std::move(substrate), num_nodes, options,
                  /*ship_dest_col=*/kSrc, static_cast<size_t>(num_nodes)),
      policy_(policy) {
  // The shortest-path family runs under absorption provenance (the paper's
  // Figure 14 evaluates aggregate selection with the main scheme only).
  RECNET_CHECK(opts_.prov == ProvMode::kAbsorption);
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    InitNode(n, static_cast<size_t>(num_nodes));
  }
}

void ShortestPathRuntime::InitNode(int n, size_t expected_nodes) {
  RuleNode& state = nodes_[static_cast<size_t>(n)];
  state.join = std::make_unique<PipelinedHashJoin>(
      opts_.prov, std::vector<size_t>{1}, std::vector<size_t>{kSrc},
      CombineLinkPath);
  state.join->Reserve(expected_nodes);
  if (policy_ != AggSelPolicy::kNone) {
    state.agg_fix = std::make_unique<AggSel>(
        opts_.prov, std::vector<size_t>{kSrc, kDst}, AggSpecs());
    state.agg_ship = std::make_unique<AggSel>(
        opts_.prov, std::vector<size_t>{kSrc, kDst}, AggSpecs());
  }
}

void ShortestPathRuntime::OnTopologyGrown(int num_nodes) {
  int old_nodes = num_logical();
  if (!GrowNodes(num_nodes)) return;
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (int n = old_nodes; n < num_nodes; ++n) {
    InitNode(n, static_cast<size_t>(num_nodes));
  }
}

std::vector<AggSpec> ShortestPathRuntime::AggSpecs() const {
  std::vector<AggSpec> specs;
  if (policy_ == AggSelPolicy::kMulti || policy_ == AggSelPolicy::kCost) {
    specs.push_back(AggSpec{AggFn::kMin, kCost});
  }
  if (policy_ == AggSelPolicy::kMulti || policy_ == AggSelPolicy::kHops) {
    specs.push_back(AggSpec{AggFn::kMin, kLen});
  }
  return specs;
}

void ShortestPathRuntime::InsertLink(LogicalNode src, LogicalNode dst,
                                     double cost) {
  Tuple link = LinkFact(src, dst, cost);
  std::optional<bdd::Var> v = AddBaseFact(link);
  if (!v.has_value()) return;  // Already alive.
  Prov pv = VarProv(*v);
  // Base case: path(src, dst, src|'.'|dst, cost, 1).
  Tuple base = MakePath(src, dst,
                        std::to_string(src) + "." + std::to_string(dst), cost,
                        1);
  Send(src, src, kPortFix, Update::Insert(std::move(base), pv));
  // Distributed join: ship the link to its dst partition.
  ShipInsert(src, dst, kPortJoinBuild, link, pv);
}

std::vector<Tuple> ShortestPathRuntime::DeleteLink(LogicalNode src,
                                                   LogicalNode dst,
                                                   std::optional<double> cost) {
  std::vector<std::pair<Tuple, bdd::Var>> taken =
      cost.has_value() ? TakeBaseFacts(LinkFact(src, dst, *cost))
                       : TakeBaseFacts(Tuple::OfInts({src, dst}),
                                       /*by_prefix=*/true);
  std::vector<Tuple> deleted;
  std::vector<bdd::Var> killed;
  for (auto& [link, var] : taken) {
    deleted.push_back(std::move(link));
    killed.push_back(var);
  }
  if (!killed.empty()) StartKill(src, std::move(killed));
  return deleted;
}

void ShortestPathRuntime::ShipPath(LogicalNode at, RuleNode& state,
                                   const Tuple& tuple, const Prov& pv) {
  if (state.agg_ship != nullptr) {
    // Aggregate selection pushed into MinShip (Algorithm 3 lines 4-8).
    for (Update& u : state.agg_ship->ProcessInsert(tuple, pv)) {
      if (u.type == UpdateType::kInsert) {
        ship(at).ProcessInsert(u.tuple, u.pv);
      } else {
        ShipRetraction(at, std::move(u.tuple));
      }
    }
    return;
  }
  ship(at).ProcessInsert(tuple, pv);
}

void ShortestPathRuntime::ShipRetraction(LogicalNode at, Tuple tuple) {
  LogicalNode dest = static_cast<LogicalNode>(tuple.IntAt(kSrc));
  ship(at).ProcessDelete(tuple);
  Send(at, dest, kPortFix, Update::Delete(std::move(tuple)));
}

void ShortestPathRuntime::ApplyFixInsert(LogicalNode at, RuleNode& state,
                                         const Tuple& tuple, const Prov& pv) {
  bool is_new = false;
  std::optional<Prov> delta = fix(at).ProcessInsert(tuple, pv, &is_new);
  if (!delta.has_value()) return;
  if (is_new) LogViewDelta(tuple, /*added=*/true);
  for (Update& out :
       state.join->ProcessInsert(PipelinedHashJoin::kRight, tuple, *delta)) {
    if (out.type == UpdateType::kInsert) {
      ShipPath(at, state, out.tuple, out.pv);
    } else {
      ShipRetraction(at, std::move(out.tuple));
    }
  }
}

void ShortestPathRuntime::ApplyFixDelete(LogicalNode at, RuleNode& state,
                                         const Tuple& tuple) {
  if (!fix(at).ProcessDelete(tuple)) return;
  LogViewDelta(tuple, /*added=*/false);
  for (Update& out :
       state.join->ProcessDelete(PipelinedHashJoin::kRight, tuple)) {
    // Retractions of this path's extensions cascade through the shipping
    // aggregate selection (replacement winners may be promoted).
    if (state.agg_ship != nullptr) {
      for (Update& agg_out : state.agg_ship->ProcessDelete(out.tuple)) {
        if (agg_out.type == UpdateType::kInsert) {
          ship(at).ProcessInsert(agg_out.tuple, agg_out.pv);
        } else {
          ShipRetraction(at, std::move(agg_out.tuple));
        }
      }
    } else {
      ShipRetraction(at, std::move(out.tuple));
    }
  }
}

void ShortestPathRuntime::HandleFixStream(LogicalNode at, RuleNode& state,
                                          const Update& u) {
  if (u.type == UpdateType::kInsert) {
    Prov guarded = GuardIncoming(u.pv);
    if (guarded.IsFalse()) return;
    if (state.agg_fix != nullptr) {
      // Aggregate selection pushed into the Fixpoint (Algorithm 1
      // lines 2-8).
      for (Update& out : state.agg_fix->ProcessInsert(u.tuple, guarded)) {
        if (out.type == UpdateType::kInsert) {
          ApplyFixInsert(at, state, out.tuple, out.pv);
        } else {
          ApplyFixDelete(at, state, out.tuple);
        }
      }
    } else {
      ApplyFixInsert(at, state, u.tuple, guarded);
    }
    return;
  }
  // Retraction stream (displaced aggregate winners).
  if (state.agg_fix != nullptr) {
    for (Update& out : state.agg_fix->ProcessDelete(u.tuple)) {
      if (out.type == UpdateType::kInsert) {
        ApplyFixInsert(at, state, out.tuple, out.pv);
      } else {
        ApplyFixDelete(at, state, out.tuple);
      }
    }
  } else {
    ApplyFixDelete(at, state, u.tuple);
  }
}

void ShortestPathRuntime::KillRuleState(LogicalNode at,
                                        const std::vector<bdd::Var>& fresh) {
  RuleNode& state = node(at);
  state.join->ProcessKill(fresh);
  if (state.agg_fix != nullptr) {
    // Replacement winners re-enter the local fixpoint.
    for (Update& out : state.agg_fix->ProcessKill(fresh)) {
      RECNET_CHECK(out.type == UpdateType::kInsert);
      ApplyFixInsert(at, state, out.tuple, out.pv);
    }
  }
  if (state.agg_ship != nullptr) {
    for (Update& out : state.agg_ship->ProcessKill(fresh)) {
      RECNET_CHECK(out.type == UpdateType::kInsert);
      ship(at).ProcessInsert(out.tuple, out.pv);
    }
  }
}

void ShortestPathRuntime::HandleBatch(const Envelope* envs, size_t n) {
  // The run shares one (dst, port): resolve the destination's operator
  // state and the port dispatch once, then apply the operator across the
  // whole batch.
  LogicalNode at = envs[0].dst;
  RuleNode& state = node(at);
  switch (LocalPort(envs[0])) {
    case kPortJoinBuild:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        RECNET_CHECK(u.type == UpdateType::kInsert);
        Prov guarded = GuardIncoming(u.pv);
        if (guarded.IsFalse()) continue;
        for (Update& out : state.join->ProcessInsert(PipelinedHashJoin::kLeft,
                                                     u.tuple, guarded)) {
          RECNET_CHECK(out.type == UpdateType::kInsert);
          ShipPath(at, state, out.tuple, out.pv);
        }
      }
      return;
    case kPortFix:
      for (size_t i = 0; i < n; ++i) {
        HandleFixStream(at, state, envs[i].update);
      }
      return;
    default:
      RECNET_CHECK(false);
  }
}

std::optional<double> ShortestPathRuntime::MinCost(LogicalNode src,
                                                   LogicalNode dst) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [tuple, pv] : fix(src).contents()) {
    if (tuple.IntAt(kDst) != dst) continue;
    best = std::min(best, tuple.DoubleAt(kCost));
  }
  if (best == std::numeric_limits<double>::infinity()) return std::nullopt;
  return best;
}

std::vector<std::optional<double>> ShortestPathRuntime::MinCosts(
    LogicalNode src, const std::vector<LogicalNode>& dsts) const {
  std::vector<std::optional<double>> out(dsts.size());
  std::vector<int32_t> slot_of(static_cast<size_t>(num_logical()), -1);
  for (size_t i = 0; i < dsts.size(); ++i) {
    slot_of[static_cast<size_t>(dsts[i])] = static_cast<int32_t>(i);
  }
  for (const auto& [tuple, pv] : fix(src).contents()) {
    int32_t slot = slot_of[static_cast<size_t>(tuple.IntAt(kDst))];
    if (slot < 0) continue;
    double cost = tuple.DoubleAt(kCost);
    auto& best = out[static_cast<size_t>(slot)];
    if (!best.has_value() || cost < *best) best = cost;
  }
  return out;
}

const Prov* ShortestPathRuntime::ViewProvenance(LogicalNode src,
                                                LogicalNode dst) const {
  // The stable projection of the pruned path view is its min-cost tuple per
  // (src, dst) — the same row Lookup surfaces — so witnesses explain that
  // tuple's derivation.
  const Prov* best_pv = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& [tuple, pv] : fix(src).contents()) {
    if (tuple.IntAt(kDst) != dst) continue;
    double cost = tuple.DoubleAt(kCost);
    if (best_pv == nullptr || cost < best_cost) {
      best_pv = &pv;
      best_cost = cost;
    }
  }
  return best_pv;
}

std::optional<int64_t> ShortestPathRuntime::MinHops(LogicalNode src,
                                                    LogicalNode dst) const {
  int64_t best = std::numeric_limits<int64_t>::max();
  for (const auto& [tuple, pv] : fix(src).contents()) {
    if (tuple.IntAt(kDst) != dst) continue;
    best = std::min(best, tuple.IntAt(kLen));
  }
  if (best == std::numeric_limits<int64_t>::max()) return std::nullopt;
  return best;
}

std::optional<std::string> ShortestPathRuntime::CheapestPathVec(
    LogicalNode src, LogicalNode dst) const {
  std::optional<double> best = MinCost(src, dst);
  if (!best.has_value()) return std::nullopt;
  for (const auto& [tuple, pv] : fix(src).contents()) {
    if (tuple.IntAt(kDst) == dst && tuple.DoubleAt(kCost) == *best) {
      return tuple.StringAt(kVec);
    }
  }
  return std::nullopt;
}

std::optional<std::string> ShortestPathRuntime::FewestHopsVec(
    LogicalNode src, LogicalNode dst) const {
  std::optional<int64_t> best = MinHops(src, dst);
  if (!best.has_value()) return std::nullopt;
  for (const auto& [tuple, pv] : fix(src).contents()) {
    if (tuple.IntAt(kDst) == dst && tuple.IntAt(kLen) == *best) {
      return tuple.StringAt(kVec);
    }
  }
  return std::nullopt;
}

std::optional<ShortestPathRuntime::ShortestCheapest>
ShortestPathRuntime::ShortestCheapestPath(LogicalNode src,
                                          LogicalNode dst) const {
  std::optional<double> cost = MinCost(src, dst);
  std::optional<int64_t> hops = MinHops(src, dst);
  std::optional<std::string> cheapest = CheapestPathVec(src, dst);
  std::optional<std::string> fewest = FewestHopsVec(src, dst);
  if (!cost || !hops || !cheapest || !fewest) return std::nullopt;
  ShortestCheapest out;
  out.cheapest_vec = *cheapest;
  out.cost = *cost;
  out.fewest_vec = *fewest;
  out.length = *hops;
  return out;
}

size_t ShortestPathRuntime::RuleStateBytes() const {
  size_t bytes = 0;
  for (const RuleNode& state : nodes_) {
    bytes += state.join->StateSizeBytes();
    if (state.agg_fix != nullptr) bytes += state.agg_fix->StateSizeBytes();
    if (state.agg_ship != nullptr) bytes += state.agg_ship->StateSizeBytes();
  }
  return bytes;
}

}  // namespace recnet
