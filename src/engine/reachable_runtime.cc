#include "engine/reachable_runtime.h"

#include <utility>

namespace recnet {
namespace {

// Base rule: link(x, y) -> reachable(x, y).
Tuple LinkReach(const Tuple& link) { return link; }

// link(x, y) ⋈ reachable(y, z) -> reachable(x, z).
Tuple CombineLinkReach(const Tuple& link, const Tuple& reach) {
  return Tuple::OfInts({link.IntAt(0), reach.IntAt(1)});
}

}  // namespace

ReachableRuntime::ReachableRuntime(std::shared_ptr<Substrate> substrate,
                                   int num_nodes,
                                   const RuntimeOptions& options)
    : ClosureRuntime(std::move(substrate), num_nodes, options,
                     ClosureShape{/*link_arity=*/2, LinkReach,
                                  CombineLinkReach, /*aggs=*/{}}) {}

void ReachableRuntime::InsertLink(LogicalNode src, LogicalNode dst) {
  ClosureRuntime::InsertLink(Tuple::OfInts({src, dst}));
}

bool ReachableRuntime::DeleteLink(LogicalNode src, LogicalNode dst) {
  return !DeleteLinks(Tuple::OfInts({src, dst})).empty();
}

bool ReachableRuntime::HasLink(LogicalNode src, LogicalNode dst) const {
  return BaseVar(Tuple::OfInts({src, dst})) != nullptr;
}

bool ReachableRuntime::IsReachable(LogicalNode src, LogicalNode dst) const {
  return fix(src).Contains(Tuple::OfInts({src, dst}));
}

std::set<LogicalNode> ReachableRuntime::ReachableFrom(LogicalNode src) const {
  std::set<LogicalNode> out;
  for (const auto& [tuple, pv] : fix(src).contents()) {
    out.insert(static_cast<LogicalNode>(tuple.IntAt(1)));
  }
  return out;
}

const Prov* ReachableRuntime::ViewProvenance(LogicalNode src,
                                             LogicalNode dst) const {
  return fix(src).Lookup(Tuple::OfInts({src, dst}));
}

}  // namespace recnet
