#include "engine/reachable_runtime.h"

#include <algorithm>

namespace recnet {
namespace {

// link(x, y) ⋈ reachable(y, z) -> reachable(x, z).
Tuple CombineLinkReach(const Tuple& link, const Tuple& reach) {
  return Tuple::OfInts({link.IntAt(0), reach.IntAt(1)});
}

}  // namespace

ReachableRuntime::ReachableRuntime(std::shared_ptr<Substrate> substrate,
                                   int num_nodes,
                                   const RuntimeOptions& options)
    : RuntimeBase(std::move(substrate), num_nodes, options) {
  nodes_.resize(static_cast<size_t>(num_nodes));
  links_by_src_.resize(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    InitNode(n, static_cast<size_t>(num_nodes));
  }
}

void ReachableRuntime::InitNode(int n, size_t expected_nodes) {
  NodeState& state = nodes_[static_cast<size_t>(n)];
  state.fix = std::make_unique<Fixpoint>(opts_.prov);
  // The view partition reachable(n, *) holds at most one tuple per
  // destination node; size the operator tables for it up front.
  state.fix->Reserve(expected_nodes);
  // Join key: link.dst (attr 1) = reachable.src (attr 0).
  state.join = std::make_unique<PipelinedHashJoin>(
      opts_.prov, std::vector<size_t>{1}, std::vector<size_t>{0},
      CombineLinkReach);
  state.join->Reserve(expected_nodes);
  // DRed (set mode) ships directly; the provenance schemes use MinShip.
  ShipMode ship_mode =
      opts_.prov == ProvMode::kSet ? ShipMode::kDirect : opts_.ship;
  state.ship = std::make_unique<MinShip>(
      opts_.prov, ship_mode, opts_.batch_window,
      [this, n](const Tuple& tuple, const Prov& pv) {
        LogicalNode dest = static_cast<LogicalNode>(tuple.IntAt(0));
        ShipInsert(n, dest, kPortFix, tuple, pv);
      });
  state.ship->Reserve(expected_nodes);
}

void ReachableRuntime::OnTopologyGrown(int num_nodes) {
  if (num_nodes <= num_logical()) return;
  int old_nodes = num_logical();
  GrowKillRouting(num_nodes);
  nodes_.resize(static_cast<size_t>(num_nodes));
  links_by_src_.resize(static_cast<size_t>(num_nodes));
  for (int n = old_nodes; n < num_nodes; ++n) {
    InitNode(n, static_cast<size_t>(num_nodes));
  }
}

void ReachableRuntime::InsertLink(LogicalNode src, LogicalNode dst) {
  Tuple link = Tuple::OfInts({src, dst});
  if (link_vars_.find(link) != link_vars_.end()) return;  // Already alive.
  bdd::Var v = AllocVar();
  link_vars_.emplace(link, v);
  links_by_src_[static_cast<size_t>(src)].push_back(dst);
  Prov pv = VarProv(v);
  // Base case (DistributedScan -> Fixpoint): local, no wire cost.
  Send(src, src, kPortFix, Update::Insert(Tuple::OfInts({src, dst}), pv));
  // Distributed join: ship the link to the node owning its dst attribute.
  ShipInsert(src, dst, kPortJoinBuild, link, pv);
}

void ReachableRuntime::DeleteLink(LogicalNode src, LogicalNode dst) {
  Tuple link = Tuple::OfInts({src, dst});
  auto it = link_vars_.find(link);
  if (it == link_vars_.end()) return;
  bdd::Var v = it->second;
  link_vars_.erase(it);
  auto& by_src = links_by_src_[static_cast<size_t>(src)];
  by_src.erase(std::remove(by_src.begin(), by_src.end(), dst), by_src.end());

  if (opts_.prov == ProvMode::kSet) {
    // DRed over-deletion phase: retract the base-case tuple locally and the
    // shipped link copy at the join; retractions cascade through the plan.
    Send(src, src, kPortFix, Update::Delete(Tuple::OfInts({src, dst})));
    Send(src, dst, kPortJoinBuild, Update::Delete(link));
    rederive_pending_ = true;
    return;
  }
  StartKill(src, {v});
}

bool ReachableRuntime::HasLink(LogicalNode src, LogicalNode dst) const {
  return link_vars_.find(Tuple::OfInts({src, dst})) != link_vars_.end();
}

bool ReachableRuntime::IsReachable(LogicalNode src, LogicalNode dst) const {
  return node(src).fix->Contains(Tuple::OfInts({src, dst}));
}

std::set<LogicalNode> ReachableRuntime::ReachableFrom(LogicalNode src) const {
  std::set<LogicalNode> out;
  for (const auto& [tuple, pv] : node(src).fix->contents()) {
    out.insert(static_cast<LogicalNode>(tuple.IntAt(1)));
  }
  return out;
}

size_t ReachableRuntime::ViewSize() const {
  size_t total = 0;
  for (const NodeState& state : nodes_) total += state.fix->size();
  return total;
}

const Prov* ReachableRuntime::ViewProvenance(LogicalNode src,
                                             LogicalNode dst) const {
  return node(src).fix->Lookup(Tuple::OfInts({src, dst}));
}

std::optional<std::pair<LogicalNode, LogicalNode>> ReachableRuntime::LinkOfVar(
    bdd::Var v) const {
  for (const auto& [link, var] : link_vars_) {
    if (var == v) {
      return std::make_pair(static_cast<LogicalNode>(link.IntAt(0)),
                            static_cast<LogicalNode>(link.IntAt(1)));
    }
  }
  return std::nullopt;
}

void ReachableRuntime::ShipJoinOutputs(LogicalNode at, NodeState& state,
                                       std::vector<Update> outs) {
  for (Update& out : outs) {
    if (out.type == UpdateType::kInsert) {
      if (opts_.prov == ProvMode::kSet) {
        // DRed ships every derivation directly; duplicates are eliminated
        // only after reaching their destination (paper §3.2).
        LogicalNode dest = static_cast<LogicalNode>(out.tuple.IntAt(0));
        Send(at, dest, kPortFix, std::move(out));
      } else {
        state.ship->ProcessInsert(out.tuple, out.pv);
      }
    } else {
      SendDirect(at, state, std::move(out));
    }
  }
}

void ReachableRuntime::SendDirect(LogicalNode at, NodeState& state,
                                  Update out) {
  LogicalNode dest = static_cast<LogicalNode>(out.tuple.IntAt(0));
  state.ship->ProcessDelete(out.tuple);
  Send(at, dest, kPortFix, std::move(out));
}

void ReachableRuntime::HandleFixInsert(LogicalNode at, NodeState& state,
                                       const Tuple& tuple, const Prov& pv) {
  Prov guarded = GuardIncoming(pv);
  if (guarded.IsFalse()) return;
  bool is_new = false;
  std::optional<Prov> delta = state.fix->ProcessInsert(tuple, guarded, &is_new);
  if (!delta.has_value()) return;
  if (is_new) LogViewDelta(tuple, /*added=*/true);
  // The fixpoint feeds into the recursive subplan: probe the local join's
  // reachable side. Absorption mode propagates the provenance delta;
  // relative mode propagates a *reference* to this tuple (derivation-edge
  // model), so only the first derivation probes — downstream derivations
  // point at the tuple, not at its provenance.
  if (opts_.prov == ProvMode::kRelative) {
    if (!is_new) return;
    ShipJoinOutputs(at, state,
                    state.join->ProcessInsert(PipelinedHashJoin::kRight, tuple,
                                              RefProv(tuple)));
    return;
  }
  ShipJoinOutputs(at, state,
                  state.join->ProcessInsert(PipelinedHashJoin::kRight, tuple,
                                            *delta));
}

void ReachableRuntime::HandleFixDelete(LogicalNode at, NodeState& state,
                                       const Tuple& tuple) {
  if (!state.fix->ProcessDelete(tuple)) return;  // Already absent.
  LogViewDelta(tuple, /*added=*/false);
  // Over-deletion cascades through the local join probe side.
  std::vector<Update> outs =
      state.join->ProcessDelete(PipelinedHashJoin::kRight, tuple);
  for (Update& out : outs) SendDirect(at, state, std::move(out));
}

void ReachableRuntime::HandleKill(LogicalNode at, NodeState& state,
                                  const std::vector<bdd::Var>& killed) {
  std::vector<bdd::Var> fresh = AcceptKill(at, killed);
  if (fresh.empty()) return;
  Fixpoint::KillResult result = state.fix->ProcessKill(fresh);
  for (const Tuple& removed : result.removed) {
    LogViewDelta(removed, /*added=*/false);
  }
  state.join->ProcessKill(fresh);
  // MinShip may promote buffered alternate derivations; the promotions are
  // enqueued after the forwarded kills, so FIFO order delivers the kill
  // first at every destination.
  state.ship->ProcessKill(fresh);
  if (opts_.prov == ProvMode::kRelative) {
    // Removed tuples invalidate the derivations that reference them.
    for (const Tuple& removed : result.removed) OnTupleRemoved(at, removed);
    relative_check_pending_ = true;
  }
}

void ReachableRuntime::HandleBatch(const Envelope* envs, size_t n) {
  // The run shares one (dst, port): resolve the destination's operator
  // state and the port dispatch once, then apply the operator across the
  // whole batch.
  LogicalNode at = envs[0].dst;
  NodeState& state = node(at);
  switch (LocalPort(envs[0])) {
    case kPortJoinBuild:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          Prov guarded = GuardIncoming(u.pv);
          if (guarded.IsFalse()) continue;
          ShipJoinOutputs(at, state,
                          state.join->ProcessInsert(PipelinedHashJoin::kLeft,
                                                    u.tuple, guarded));
        } else if (u.type == UpdateType::kDelete) {
          std::vector<Update> outs =
              state.join->ProcessDelete(PipelinedHashJoin::kLeft, u.tuple);
          for (Update& out : outs) SendDirect(at, state, std::move(out));
        }
      }
      return;
    case kPortFix:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          HandleFixInsert(at, state, u.tuple, u.pv);
        } else if (u.type == UpdateType::kDelete) {
          HandleFixDelete(at, state, u.tuple);
        }
      }
      return;
    case kPortKill:
      for (size_t i = 0; i < n; ++i) {
        HandleKill(at, state, envs[i].update.killed);
      }
      return;
    default:
      RECNET_CHECK(false);
  }
}

uint64_t ReachableRuntime::CountShipDemotions() const {
  uint64_t total = 0;
  for (LogicalNode n = 0; n < num_logical(); ++n) {
    total += node(n).ship->demotions();
  }
  return total;
}

bool ReachableRuntime::AfterQuiescent() {
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
    // The derivation-graph traversal of relative provenance: the kill
    // cascade removed everything reference-counting can remove; tuples
    // surviving only through cyclic self-support are found by the global
    // derivability fixpoint and force-removed.
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
      LogViewDelta(tuple, /*added=*/false);
      OnTupleRemoved(owner, tuple);
    }
    return !underivable.empty();
  }
  return false;
}

void ReachableRuntime::SeedRederivation() {
  // DRed re-derivation (paper Figure 5, steps 5-8): re-run the rules over
  // the surviving base and view tuples. Tuples already present are absorbed
  // by the destination fixpoints — but only after paying the shipping cost,
  // exactly as DRed does.
  for (LogicalNode n = 0; n < num_logical(); ++n) {
    // Base case: re-derive reachable(n, y) from every live link(n, y),
    // enqueued as one per-destination batch.
    const auto& by_src = links_by_src_[static_cast<size_t>(n)];
    if (!by_src.empty()) {
      std::vector<Update> batch;
      batch.reserve(by_src.size());
      for (LogicalNode dst : by_src) {
        batch.push_back(Update::Insert(Tuple::OfInts({n, dst}), TrueProv()));
      }
      SendBatch(n, n, kPortFix, std::move(batch));
    }
    // Recursive case: re-fire the join over surviving reachable tuples.
    for (const Tuple& tuple :
         node(n).join->TuplesOn(PipelinedHashJoin::kRight)) {
      ShipJoinOutputs(n, node(n),
                      node(n).join->Refire(PipelinedHashJoin::kRight, tuple));
    }
  }
}

size_t ReachableRuntime::StateSizeBytes() const {
  size_t bytes = 0;
  for (const NodeState& state : nodes_) {
    bytes += state.fix->StateSizeBytes() + state.join->StateSizeBytes() +
             state.ship->StateSizeBytes();
  }
  return bytes;
}

}  // namespace recnet
