#ifndef RECNET_ENGINE_REACHABLE_RUNTIME_H_
#define RECNET_ENGINE_REACHABLE_RUNTIME_H_

#include <memory>
#include <set>

#include "engine/closure_runtime.h"

namespace recnet {

// Distributed, incrementally maintained transitive closure — the paper's
// Query 1 and the running example of Sections 3-5: the closure plan
// (Figure 4) over link(src, dst) with reachable(src, dst) as the view and
// no aggregate selection. Runs under every ProvMode, DRed (kSet) included.
class ReachableRuntime : public ClosureRuntime {
 public:
  ReachableRuntime(std::shared_ptr<Substrate> substrate, int num_nodes,
                   const RuntimeOptions& options);

  // Injects link(src, dst) at node src (call Run() to propagate). Inserting
  // a link twice is a no-op while the first copy is alive; re-inserting
  // after deletion creates a fresh base variable (soft-state renewal).
  void InsertLink(LogicalNode src, LogicalNode dst);

  // Deletes link(src, dst); returns false when it is not alive. In the
  // provenance modes this enqueues a kill of the link's variable; in set
  // mode it enqueues DRed's over-deletion and schedules the re-derivation
  // phase. Call Run() to propagate.
  bool DeleteLink(LogicalNode src, LogicalNode dst);

  bool HasLink(LogicalNode src, LogicalNode dst) const;

  // --- View access ----------------------------------------------------------

  bool IsReachable(LogicalNode src, LogicalNode dst) const;
  std::set<LogicalNode> ReachableFrom(LogicalNode src) const;

  // Provenance annotation of reachable(src, dst), if present (provenance
  // modes only); supports "why is this tuple here" diagnostics.
  const Prov* ViewProvenance(LogicalNode src, LogicalNode dst) const;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_REACHABLE_RUNTIME_H_
