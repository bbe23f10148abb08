#ifndef RECNET_ENGINE_SHORTEST_PATH_RUNTIME_H_
#define RECNET_ENGINE_SHORTEST_PATH_RUNTIME_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/closure_runtime.h"

namespace recnet {

// Which aggregate selections are pushed into the path recursion (paper
// Section 6 / Figure 14):
//   * kMulti  — prune on MIN(cost) and MIN(length) simultaneously
//               ("Multi AggSel").
//   * kCost   — prune on MIN(cost) only ("Single AggSel").
//   * kHops   — prune on MIN(length) only (the symmetric single run).
//   * kNone   — no aggregate selection: path enumerates all paths and "may
//               not terminate" (paper §2); runs are budget-capped.
enum class AggSelPolicy { kMulti, kCost, kHops, kNone };

const char* AggSelPolicyName(AggSelPolicy policy);

// Distributed maintenance of the paper's Query 2 (Shortest Path): the
// recursive view path(src, dst, vec, cost, length) plus the derived views
// minCost, minHops, cheapestPath, fewestHops and shortestCheapestPath.
//
// The closure plan (Figure 4) over link(src, dst, cost) with path tuples as
// the view, and the aggregate selections `policy` names pushed into the
// Fixpoint and MinShip inputs, so tuples that cannot affect any group
// aggregate are suppressed before they are stored or shipped. Runs under
// absorption provenance only.
class ShortestPathRuntime : public ClosureRuntime {
 public:
  ShortestPathRuntime(std::shared_ptr<Substrate> substrate, int num_nodes,
                      const RuntimeOptions& options, AggSelPolicy policy);

  void InsertLink(LogicalNode src, LogicalNode dst, double cost);
  // Deletes link(src, dst, cost), or with no cost every live link from src
  // to dst. Returns the deleted link facts (src, dst, cost).
  std::vector<Tuple> DeleteLink(LogicalNode src, LogicalNode dst,
                                std::optional<double> cost = std::nullopt);

  // --- Derived views (computed at the src partition) -------------------------

  // minCost(src, dst): cheapest path cost.
  std::optional<double> MinCost(LogicalNode src, LogicalNode dst) const;
  // Batch variant: minimum cost for each destination in `dsts`, computed in
  // one pass over src's path partition (the facade's incremental cache
  // patching asks about many destinations of one source after a delta).
  std::vector<std::optional<double>> MinCosts(
      LogicalNode src, const std::vector<LogicalNode>& dsts) const;
  // minHops(src, dst): fewest-hop path length.
  std::optional<int64_t> MinHops(LogicalNode src, LogicalNode dst) const;
  // cheapestPath(src, dst): vec of a cost-minimal path.
  std::optional<std::string> CheapestPathVec(LogicalNode src,
                                             LogicalNode dst) const;
  // fewestHops(src, dst): vec of a length-minimal path.
  std::optional<std::string> FewestHopsVec(LogicalNode src,
                                           LogicalNode dst) const;

  struct ShortestCheapest {
    std::string cheapest_vec;
    double cost = 0;
    std::string fewest_vec;
    int64_t length = 0;
  };
  // shortestCheapestPath(src, dst): join of cheapestPath and fewestHops.
  std::optional<ShortestCheapest> ShortestCheapestPath(LogicalNode src,
                                                       LogicalNode dst) const;

  // Provenance annotation of a cost-minimal path(src, dst) tuple, if one is
  // materialized (the runtime always runs under absorption provenance);
  // backs the facade's Explain witnesses for the path view.
  const Prov* ViewProvenance(LogicalNode src, LogicalNode dst) const;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_SHORTEST_PATH_RUNTIME_H_
