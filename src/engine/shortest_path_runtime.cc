#include "engine/shortest_path_runtime.h"

#include <limits>
#include <utility>

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

// Base rule: link(x, y, c) -> path(x, y, x|'.'|y, c, 1).
Tuple LinkPath(const Tuple& link) {
  return MakePath(link.IntAt(0), link.IntAt(1),
                  std::to_string(link.IntAt(0)) + "." +
                      std::to_string(link.IntAt(1)),
                  link.DoubleAt(2), 1);
}

std::vector<AggSpec> AggSpecsOf(AggSelPolicy policy) {
  std::vector<AggSpec> specs;
  if (policy == AggSelPolicy::kMulti || policy == AggSelPolicy::kCost) {
    specs.push_back(AggSpec{AggFn::kMin, kCost});
  }
  if (policy == AggSelPolicy::kMulti || policy == AggSelPolicy::kHops) {
    specs.push_back(AggSpec{AggFn::kMin, kLen});
  }
  return specs;
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
    : ClosureRuntime(std::move(substrate), num_nodes, options,
                     ClosureShape{/*link_arity=*/3, LinkPath, CombineLinkPath,
                                  AggSpecsOf(policy)}) {
  // The shortest-path family runs under absorption provenance (the paper's
  // Figure 14 evaluates aggregate selection with the main scheme only).
  RECNET_CHECK(opts_.prov == ProvMode::kAbsorption);
}

void ShortestPathRuntime::InsertLink(LogicalNode src, LogicalNode dst,
                                     double cost) {
  ClosureRuntime::InsertLink(LinkFact(src, dst, cost));
}

std::vector<Tuple> ShortestPathRuntime::DeleteLink(LogicalNode src,
                                                   LogicalNode dst,
                                                   std::optional<double> cost) {
  return DeleteLinks(cost.has_value() ? LinkFact(src, dst, *cost)
                                      : Tuple::OfInts({src, dst}));
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

}  // namespace recnet
