#include "engine/closure_runtime.h"

#include <utility>

namespace recnet {

ClosureRuntime::ClosureRuntime(std::shared_ptr<Substrate> substrate,
                               int num_nodes, const RuntimeOptions& options,
                               ClosureShape shape)
    // The view partition view(n, *) holds (after aggregate selection) about
    // one tuple per destination node; size the operator tables for it up
    // front. Derived view(x, ...) tuples ship to node x.
    : RuntimeBase(std::move(substrate), num_nodes, options,
                  /*ship_dest_col=*/0, static_cast<size_t>(num_nodes)),
      shape_(std::move(shape)) {
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    InitNode(n, static_cast<size_t>(num_nodes));
  }
}

void ClosureRuntime::InitNode(int n, size_t expected_nodes) {
  RuleNode& node = nodes_[static_cast<size_t>(n)];
  // Join key: link.dst (attr 1) = view.src (attr 0).
  node.join = std::make_unique<PipelinedHashJoin>(
      opts_.prov, std::vector<size_t>{1}, std::vector<size_t>{0},
      shape_.combine);
  node.join->Reserve(expected_nodes);
  if (!shape_.aggs.empty()) {
    node.agg_fix = std::make_unique<AggSel>(
        opts_.prov, std::vector<size_t>{0, 1}, shape_.aggs);
    node.agg_ship = std::make_unique<AggSel>(
        opts_.prov, std::vector<size_t>{0, 1}, shape_.aggs);
  }
}

void ClosureRuntime::OnTopologyGrown(int num_nodes) {
  int old_nodes = num_logical();
  if (!GrowNodes(num_nodes)) return;
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (int n = old_nodes; n < num_nodes; ++n) {
    InitNode(n, static_cast<size_t>(num_nodes));
  }
}

void ClosureRuntime::InsertLink(const Tuple& link) {
  std::optional<bdd::Var> v = AddBaseFact(link);
  if (!v.has_value()) return;  // Already alive.
  Prov pv = VarProv(*v);
  LogicalNode src = static_cast<LogicalNode>(link.IntAt(0));
  LogicalNode dst = static_cast<LogicalNode>(link.IntAt(1));
  // Base case (DistributedScan -> Fixpoint): local, no wire cost.
  Send(src, src, kPortFix, Update::Insert(shape_.base(link), pv));
  // Distributed join: ship the link to the node owning its dst attribute.
  ShipInsert(src, dst, kPortJoinBuild, link, pv);
}

std::vector<Tuple> ClosureRuntime::DeleteLinks(const Tuple& key) {
  std::vector<std::pair<Tuple, bdd::Var>> taken =
      TakeBaseFacts(key, /*by_prefix=*/key.size() < shape_.link_arity);
  std::vector<Tuple> deleted;
  if (taken.empty()) return deleted;
  LogicalNode src = static_cast<LogicalNode>(key.IntAt(0));
  deleted.reserve(taken.size());
  if (opts_.prov == ProvMode::kSet) {
    // DRed over-deletion phase: retract the base-case tuple locally and the
    // shipped link copy at the join; retractions cascade through the plan.
    for (auto& [link, var] : taken) {
      LogicalNode dst = static_cast<LogicalNode>(link.IntAt(1));
      Send(src, src, kPortFix, Update::Delete(shape_.base(link)));
      Send(src, dst, kPortJoinBuild, Update::Delete(link));
      deleted.push_back(std::move(link));
    }
    RequestRederivation();
    return deleted;
  }
  std::vector<bdd::Var> killed;
  killed.reserve(taken.size());
  for (auto& [link, var] : taken) {
    deleted.push_back(std::move(link));
    killed.push_back(var);
  }
  StartKill(src, std::move(killed));
  return deleted;
}

void ClosureRuntime::HandleBatch(const Envelope* envs, size_t n) {
  // The run shares one (dst, port): resolve the destination's rule state
  // and the port dispatch once, then apply the operator across the whole
  // batch.
  LogicalNode at = envs[0].dst;
  RuleNode& node = nodes_[static_cast<size_t>(at)];
  switch (LocalPort(envs[0])) {
    case kPortJoinBuild:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          Prov guarded = GuardIncoming(u.pv);
          if (guarded.IsFalse()) continue;
          JoinOutputs(at, node,
                      node.join->ProcessInsert(PipelinedHashJoin::kLeft,
                                               u.tuple, guarded));
        } else if (u.type == UpdateType::kDelete) {
          JoinOutputs(at, node,
                      node.join->ProcessDelete(PipelinedHashJoin::kLeft,
                                               u.tuple));
        }
      }
      return;
    case kPortFix:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          Prov guarded = GuardIncoming(u.pv);
          if (guarded.IsFalse()) continue;
          if (node.agg_fix != nullptr) {
            // Aggregate selection pushed into the Fixpoint (Algorithm 1
            // lines 2-8).
            FixOutputs(at, node, node.agg_fix->ProcessInsert(u.tuple, guarded));
          } else {
            FixInsert(at, node, u.tuple, guarded);
          }
        } else if (u.type == UpdateType::kDelete) {
          if (node.agg_fix != nullptr) {
            // Displaced winners may promote a runner-up.
            FixOutputs(at, node, node.agg_fix->ProcessDelete(u.tuple));
          } else {
            FixDelete(at, node, u.tuple);
          }
        }
      }
      return;
    default:
      RECNET_CHECK(false);
  }
}

void ClosureRuntime::FixOutputs(LogicalNode at, RuleNode& node,
                                std::vector<Update> outs) {
  for (Update& out : outs) {
    if (out.type == UpdateType::kInsert) {
      FixInsert(at, node, out.tuple, out.pv);
    } else {
      FixDelete(at, node, out.tuple);
    }
  }
}

void ClosureRuntime::FixInsert(LogicalNode at, RuleNode& node,
                               const Tuple& tuple, const Prov& pv) {
  bool is_new = false;
  std::optional<Prov> delta = fix(at).ProcessInsert(tuple, pv, &is_new);
  if (!delta.has_value()) return;
  if (is_new) LogViewDelta(tuple, /*added=*/true);
  // The fixpoint feeds into the recursive subplan: probe the local join's
  // view side. Absorption mode propagates the provenance delta; relative
  // mode propagates a *reference* to this tuple (derivation-edge model), so
  // only the first derivation probes — downstream derivations point at the
  // tuple, not at its provenance.
  if (opts_.prov == ProvMode::kRelative) {
    if (!is_new) return;
    JoinOutputs(at, node,
                node.join->ProcessInsert(PipelinedHashJoin::kRight, tuple,
                                         RefProv(tuple)));
    return;
  }
  JoinOutputs(at, node,
              node.join->ProcessInsert(PipelinedHashJoin::kRight, tuple,
                                       *delta));
}

void ClosureRuntime::FixDelete(LogicalNode at, RuleNode& node,
                               const Tuple& tuple) {
  if (!fix(at).ProcessDelete(tuple)) return;  // Already absent.
  LogViewDelta(tuple, /*added=*/false);
  // Retractions cascade through the local join's view side.
  JoinOutputs(at, node,
              node.join->ProcessDelete(PipelinedHashJoin::kRight, tuple));
}

void ClosureRuntime::JoinOutputs(LogicalNode at, RuleNode& node,
                                 std::vector<Update> outs) {
  if (node.agg_ship == nullptr) {
    ShipOutputs(at, std::move(outs));
    return;
  }
  // Aggregate selection pushed into MinShip (Algorithm 3 lines 4-8); a
  // retracted winner may promote a runner-up.
  for (Update& out : outs) {
    ShipOutputs(at, out.type == UpdateType::kInsert
                        ? node.agg_ship->ProcessInsert(out.tuple, out.pv)
                        : node.agg_ship->ProcessDelete(out.tuple));
  }
}

void ClosureRuntime::ShipOutputs(LogicalNode at, std::vector<Update> outs) {
  for (Update& out : outs) {
    if (out.type == UpdateType::kInsert) {
      Ship(at, out);
    } else {
      Retract(at, std::move(out.tuple));
    }
  }
}

void ClosureRuntime::Ship(LogicalNode at, Update& out) {
  if (opts_.prov == ProvMode::kSet) {
    LogicalNode dest = static_cast<LogicalNode>(out.tuple.IntAt(0));
    Send(at, dest, kPortFix, std::move(out));
    return;
  }
  ship(at).ProcessInsert(out.tuple, out.pv);
}

void ClosureRuntime::Retract(LogicalNode at, Tuple tuple) {
  LogicalNode dest = static_cast<LogicalNode>(tuple.IntAt(0));
  ship(at).ProcessDelete(tuple);
  Send(at, dest, kPortFix, Update::Delete(std::move(tuple)));
}

void ClosureRuntime::KillRuleState(LogicalNode at,
                                   const std::vector<bdd::Var>& fresh) {
  RuleNode& node = nodes_[static_cast<size_t>(at)];
  node.join->ProcessKill(fresh);
  if (node.agg_fix != nullptr) {
    // Replacement winners re-enter the local fixpoint.
    for (Update& out : node.agg_fix->ProcessKill(fresh)) {
      RECNET_CHECK(out.type == UpdateType::kInsert);
      FixInsert(at, node, out.tuple, out.pv);
    }
  }
  if (node.agg_ship != nullptr) {
    for (Update& out : node.agg_ship->ProcessKill(fresh)) {
      RECNET_CHECK(out.type == UpdateType::kInsert);
      Ship(at, out);
    }
  }
}

void ClosureRuntime::SeedRederivation() {
  // DRed re-derivation (paper Figure 5, steps 5-8): re-run the rules over
  // the surviving base and view tuples. Tuples already present are absorbed
  // by the destination fixpoints — but only after paying the shipping cost,
  // exactly as DRed does.
  std::vector<std::vector<Update>> base_by_src(
      static_cast<size_t>(num_logical()));
  for (const auto& [link, var] : BaseFactsInOrder()) {
    base_by_src[static_cast<size_t>(link.IntAt(0))].push_back(
        Update::Insert(shape_.base(link), TrueProv()));
  }
  for (LogicalNode n = 0; n < num_logical(); ++n) {
    // Base case: re-derive from every live link at n, in variable order,
    // enqueued as one per-destination batch.
    std::vector<Update>& batch = base_by_src[static_cast<size_t>(n)];
    if (!batch.empty()) SendBatch(n, n, kPortFix, std::move(batch));
    // Recursive case: re-fire the join over surviving view tuples.
    RuleNode& node = nodes_[static_cast<size_t>(n)];
    for (const Tuple& tuple : node.join->TuplesOn(PipelinedHashJoin::kRight)) {
      JoinOutputs(n, node, node.join->Refire(PipelinedHashJoin::kRight, tuple));
    }
  }
}

size_t ClosureRuntime::RuleStateBytes() const {
  size_t bytes = 0;
  for (const RuleNode& node : nodes_) {
    bytes += node.join->StateSizeBytes();
    if (node.agg_fix != nullptr) bytes += node.agg_fix->StateSizeBytes();
    if (node.agg_ship != nullptr) bytes += node.agg_ship->StateSizeBytes();
  }
  return bytes;
}

}  // namespace recnet
