#ifndef RECNET_ENGINE_REACHABLE_RUNTIME_H_
#define RECNET_ENGINE_REACHABLE_RUNTIME_H_

#include <memory>
#include <set>
#include <vector>

#include "engine/runtime_base.h"
#include "operators/hash_join.h"

namespace recnet {

// Distributed, incrementally maintained transitive closure — the paper's
// Query 1 and the running example of Sections 3-5.
//
// Plan (paper Figure 4), instantiated per logical node n:
//   * link(n, y) lives at n; a copy ships to node y's join build side
//     (the distributed join on link.dst = reachable.src).
//   * Fixpoint at n stores the view partition reachable(n, *).
//   * Fixpoint deltas probe the local join; joined results
//     reachable(x, z) ship through MinShip to node x's fixpoint.
//
// Maintenance strategy is selected by RuntimeOptions::prov:
//   * kAbsorption / kRelative — provenance annotations; deletion kills the
//     link's base variable along subscription edges.
//   * kSet — the DRed baseline: deletion over-deletes through the same
//     dataflow, then a re-derivation phase re-fires the join over the
//     surviving tuples (paper Figure 5).
class ReachableRuntime : public RuntimeBase {
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

  // Snapshot round-trip (see RuntimeBase::SaveState): appends DRed's link
  // index and every node's join. Defined in engine/runtime_persist.cc.
  void SaveState(persist::SnapshotWriter& w) const override;
  Status LoadState(persist::SnapshotReader& r) override;

 protected:
  // Vectorized delivery: one (dst, port) switch and node-state lookup per
  // run, with the operator applied across the whole batch.
  void HandleBatch(const Envelope* envs, size_t n) override;
  void KillRuleState(LogicalNode at,
                     const std::vector<bdd::Var>& fresh) override;
  void SeedRederivation() override;
  // Dynamic node-id space: extends the per-node operator state when the
  // substrate's topology grows (late facts mentioning unseen node ids).
  void OnTopologyGrown(int num_nodes) override;
  size_t RuleStateBytes() const override;

 private:
  PipelinedHashJoin& join(LogicalNode n) {
    return *joins_[static_cast<size_t>(n)];
  }

  // Builds node n's join, sizing tables for `expected_nodes`.
  void InitJoin(int n, size_t expected_nodes);

  void ShipJoinOutputs(LogicalNode at, std::vector<Update> outs);
  void SendDirect(LogicalNode at, Update out);
  void HandleFixInsert(LogicalNode at, const Tuple& tuple, const Prov& pv);
  void HandleFixDelete(LogicalNode at, const Tuple& tuple);

  // Per node: the distributed join link(x, y) ⋈ reachable(y, z).
  std::vector<std::unique_ptr<PipelinedHashJoin>> joins_;
  // Alive links grouped by source (for DRed re-derivation's base case).
  std::vector<std::vector<LogicalNode>> links_by_src_;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_REACHABLE_RUNTIME_H_
