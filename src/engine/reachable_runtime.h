#ifndef RECNET_ENGINE_REACHABLE_RUNTIME_H_
#define RECNET_ENGINE_REACHABLE_RUNTIME_H_

#include <atomic>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "engine/runtime_base.h"
#include "operators/fixpoint.h"
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

  // Deletes link(src, dst). In the provenance modes this enqueues a kill of
  // the link's variable; in set mode it enqueues DRed's over-deletion and
  // schedules the re-derivation phase. Call Run() to propagate.
  void DeleteLink(LogicalNode src, LogicalNode dst);

  bool HasLink(LogicalNode src, LogicalNode dst) const;

  // --- View access ----------------------------------------------------------

  bool IsReachable(LogicalNode src, LogicalNode dst) const;
  std::set<LogicalNode> ReachableFrom(LogicalNode src) const;
  size_t ViewSize() const;

  // Provenance annotation of reachable(src, dst), if present (provenance
  // modes only); supports "why is this tuple here" diagnostics.
  const Prov* ViewProvenance(LogicalNode src, LogicalNode dst) const;

  // Reverse-maps a base variable to the live link it annotates (for
  // rendering provenance witnesses).
  std::optional<std::pair<LogicalNode, LogicalNode>> LinkOfVar(
      bdd::Var v) const;

  // Snapshot round-trip (see RuntimeBase::SaveState): appends the link
  // table, the DRed bookkeeping, and every node's operator state. Defined
  // in engine/runtime_persist.cc.
  void SaveState(persist::SnapshotWriter& w) const override;
  Status LoadState(persist::SnapshotReader& r) override;

 protected:
  // Vectorized delivery: one (dst, port) switch and node-state lookup per
  // run, with the operator applied across the whole batch.
  void HandleBatch(const Envelope* envs, size_t n) override;
  bool AfterQuiescent() override;
  uint64_t CountShipDemotions() const override;
  // Dynamic node-id space: extends the per-node operator state when the
  // substrate's topology grows (late facts mentioning unseen node ids).
  void OnTopologyGrown(int num_nodes) override;
  size_t StateSizeBytes() const override;

 private:
  struct NodeState {
    std::unique_ptr<Fixpoint> fix;
    std::unique_ptr<PipelinedHashJoin> join;
    std::unique_ptr<MinShip> ship;
  };

  NodeState& node(LogicalNode n) { return nodes_[static_cast<size_t>(n)]; }
  const NodeState& node(LogicalNode n) const {
    return nodes_[static_cast<size_t>(n)];
  }

  // Builds node n's operator pipeline, sizing tables for `expected_nodes`.
  void InitNode(int n, size_t expected_nodes);

  // The handlers take the destination's NodeState, resolved once per
  // delivery batch rather than once per envelope.
  void ShipJoinOutputs(LogicalNode at, NodeState& state,
                       std::vector<Update> outs);
  void SendDirect(LogicalNode at, NodeState& state, Update out);
  void HandleFixInsert(LogicalNode at, NodeState& state, const Tuple& tuple,
                       const Prov& pv);
  void HandleFixDelete(LogicalNode at, NodeState& state, const Tuple& tuple);
  void HandleKill(LogicalNode at, NodeState& state,
                  const std::vector<bdd::Var>& killed);
  void SeedRederivation();

  std::vector<NodeState> nodes_;
  // Alive links and their base variables (set mode stores var 0 sentinels).
  std::unordered_map<Tuple, bdd::Var, TupleHash> link_vars_;
  // Alive links grouped by source (for DRed re-derivation's base case).
  std::vector<std::vector<LogicalNode>> links_by_src_;
  bool rederive_pending_ = false;
  // Relative mode: a kill happened; run the derivability traversal at
  // quiescence to collect cyclically self-supported tuples. Atomic: set by
  // parallel shard workers in HandleKill, consumed at the quiescence
  // barrier.
  std::atomic<bool> relative_check_pending_{false};
};

}  // namespace recnet

#endif  // RECNET_ENGINE_REACHABLE_RUNTIME_H_
