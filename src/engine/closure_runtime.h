#ifndef RECNET_ENGINE_CLOSURE_RUNTIME_H_
#define RECNET_ENGINE_CLOSURE_RUNTIME_H_

#include <memory>
#include <vector>

#include "engine/runtime_base.h"
#include "operators/agg_sel.h"
#include "operators/hash_join.h"

namespace recnet {

// The rules of one closure view over a link relation: the base rule
// link(x, y, ...) -> view(x, y, ...) and the recursive rule
// link(x, z, ...) ⋈ view(z, y, ...) -> view(x, y, ...). Columns 0 and 1
// of both relations are the endpoints; the view is partitioned (and
// shipped) by its column 0.
struct ClosureShape {
  // Columns of a link fact. A shorter key names every live link between
  // its two endpoints (DeleteLinks).
  size_t link_arity = 2;
  // Base rule: the view tuple a link derives at its source.
  Tuple (*base)(const Tuple& link) = nullptr;
  // Recursive rule: the view tuple a link and a view tuple at its
  // destination derive at the link's source.
  PipelinedHashJoin::CombineFn combine;
  // Aggregate selections pushed into the Fixpoint and MinShip inputs,
  // grouped by (src, dst); empty means no AggSel.
  std::vector<AggSpec> aggs;
};

// Distributed, incrementally maintained closure of a link relation — the
// plan of the paper's Figure 4, shared by Query 1 (reachable) and Query 2
// (path, with aggregate selection). Instantiated per logical node n:
//   * link(n, y, ...) lives at n; its base-rule tuple enters n's Fixpoint
//     and a copy ships to node y's join build side (the distributed join on
//     link.dst = view.src).
//   * Fixpoint deltas probe the local join; joined view(x, ...) tuples ship
//     through MinShip to node x's Fixpoint.
//   * With AggSel, tuples that cannot change a (src, dst) group's aggregate
//     are suppressed at the Fixpoint input and at the MinShip input
//     (Algorithm 1 lines 2-8, Algorithm 3 lines 4-8, Algorithm 4).
//
// Maintenance strategy is selected by RuntimeOptions::prov:
//   * kAbsorption / kRelative — provenance annotations; deletion kills the
//     link's base variable along subscription edges.
//   * kSet — the DRed baseline: deletion over-deletes through the same
//     dataflow, then a re-derivation phase re-fires the rules over the
//     surviving tuples (paper Figure 5).
class ClosureRuntime : public RuntimeBase {
 public:
  // Deletes the live link equal to `key`, or — for a key shorter than a
  // link — every live link whose leading columns equal it, and returns the
  // deleted facts. In the provenance modes this enqueues one kill of their
  // variables; in set mode it enqueues DRed's over-deletion and schedules
  // the re-derivation phase. Call Run() to propagate.
  std::vector<Tuple> DeleteLinks(const Tuple& key);

  // Snapshot round-trip (see RuntimeBase::SaveState): appends every node's
  // join, then its AggSel pair when the shape has one. Defined in
  // engine/runtime_persist.cc.
  void SaveState(persist::SnapshotWriter& w) const override;
  Status LoadState(persist::SnapshotReader& r) override;

 protected:
  ClosureRuntime(std::shared_ptr<Substrate> substrate, int num_nodes,
                 const RuntimeOptions& options, ClosureShape shape);

  // Injects `link` at its source node (call Run() to propagate). Inserting
  // a live link again is a no-op; re-inserting after deletion creates a
  // fresh base variable (soft-state renewal). The shapes wrap it in their
  // typed InsertLink.
  void InsertLink(const Tuple& link);

 private:
  struct RuleNode {
    // The distributed join link(x, z, ...) ⋈ view(z, y, ...).
    std::unique_ptr<PipelinedHashJoin> join;
    std::unique_ptr<AggSel> agg_fix;   // Pushed into the Fixpoint.
    std::unique_ptr<AggSel> agg_ship;  // Pushed into MinShip.
  };

  // Vectorized delivery: one (dst, port) switch and node-state lookup per
  // run, with the operator applied across the whole batch.
  void HandleBatch(const Envelope* envs, size_t n) override;
  void KillRuleState(LogicalNode at,
                     const std::vector<bdd::Var>& fresh) override;
  void SeedRederivation() override;
  // Dynamic node-id space: extends the per-node rule state when the
  // substrate's topology grows (late facts mentioning unseen node ids).
  void OnTopologyGrown(int num_nodes) override;
  size_t RuleStateBytes() const override;

  // Builds node n's rule operators, sizing tables for `expected_nodes`.
  void InitNode(int n, size_t expected_nodes);

  // Fixpoint input after aggregate selection: stores the tuple and probes
  // the join with its delta.
  void FixInsert(LogicalNode at, RuleNode& node, const Tuple& tuple,
                 const Prov& pv);
  void FixDelete(LogicalNode at, RuleNode& node, const Tuple& tuple);
  // Routes updates aggregate selection emits at the Fixpoint input.
  void FixOutputs(LogicalNode at, RuleNode& node, std::vector<Update> outs);
  // Routes join outputs through the shipping AggSel, if any, to
  // ShipOutputs.
  void JoinOutputs(LogicalNode at, RuleNode& node, std::vector<Update> outs);
  // Ships insertions and retracts deletions.
  void ShipOutputs(LogicalNode at, std::vector<Update> outs);
  // Ships a derived view tuple: DRed sends every derivation directly
  // (duplicates are eliminated only at the destination, paper §3.2); the
  // provenance modes go through MinShip. Set mode moves `out` onto the
  // wire; the provenance modes copy nothing.
  void Ship(LogicalNode at, Update& out);
  // Retracts a derived view tuple from MinShip and its destination.
  void Retract(LogicalNode at, Tuple tuple);

  ClosureShape shape_;
  std::vector<RuleNode> nodes_;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_CLOSURE_RUNTIME_H_
