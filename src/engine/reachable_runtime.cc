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
    // The view partition reachable(n, *) holds at most one tuple per
    // destination node; size the operator tables for it up front. Derived
    // reachable(x, z) tuples ship to node x.
    : RuntimeBase(std::move(substrate), num_nodes, options,
                  /*ship_dest_col=*/0, static_cast<size_t>(num_nodes)) {
  joins_.resize(static_cast<size_t>(num_nodes));
  links_by_src_.resize(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    InitJoin(n, static_cast<size_t>(num_nodes));
  }
}

void ReachableRuntime::InitJoin(int n, size_t expected_nodes) {
  // Join key: link.dst (attr 1) = reachable.src (attr 0).
  auto& join = joins_[static_cast<size_t>(n)];
  join = std::make_unique<PipelinedHashJoin>(
      opts_.prov, std::vector<size_t>{1}, std::vector<size_t>{0},
      CombineLinkReach);
  join->Reserve(expected_nodes);
}

void ReachableRuntime::OnTopologyGrown(int num_nodes) {
  int old_nodes = num_logical();
  if (!GrowNodes(num_nodes)) return;
  joins_.resize(static_cast<size_t>(num_nodes));
  links_by_src_.resize(static_cast<size_t>(num_nodes));
  for (int n = old_nodes; n < num_nodes; ++n) {
    InitJoin(n, static_cast<size_t>(num_nodes));
  }
}

void ReachableRuntime::InsertLink(LogicalNode src, LogicalNode dst) {
  Tuple link = Tuple::OfInts({src, dst});
  std::optional<bdd::Var> v = AddBaseFact(link);
  if (!v.has_value()) return;  // Already alive.
  links_by_src_[static_cast<size_t>(src)].push_back(dst);
  Prov pv = VarProv(*v);
  // Base case (DistributedScan -> Fixpoint): local, no wire cost.
  Send(src, src, kPortFix, Update::Insert(Tuple::OfInts({src, dst}), pv));
  // Distributed join: ship the link to the node owning its dst attribute.
  ShipInsert(src, dst, kPortJoinBuild, link, pv);
}

bool ReachableRuntime::DeleteLink(LogicalNode src, LogicalNode dst) {
  Tuple link = Tuple::OfInts({src, dst});
  std::vector<std::pair<Tuple, bdd::Var>> taken = TakeBaseFacts(link);
  if (taken.empty()) return false;
  auto& by_src = links_by_src_[static_cast<size_t>(src)];
  by_src.erase(std::remove(by_src.begin(), by_src.end(), dst), by_src.end());

  if (opts_.prov == ProvMode::kSet) {
    // DRed over-deletion phase: retract the base-case tuple locally and the
    // shipped link copy at the join; retractions cascade through the plan.
    Send(src, src, kPortFix, Update::Delete(Tuple::OfInts({src, dst})));
    Send(src, dst, kPortJoinBuild, Update::Delete(link));
    RequestRederivation();
    return true;
  }
  StartKill(src, {taken[0].second});
  return true;
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

void ReachableRuntime::ShipJoinOutputs(LogicalNode at,
                                       std::vector<Update> outs) {
  for (Update& out : outs) {
    if (out.type == UpdateType::kInsert) {
      if (opts_.prov == ProvMode::kSet) {
        // DRed ships every derivation directly; duplicates are eliminated
        // only after reaching their destination (paper §3.2).
        LogicalNode dest = static_cast<LogicalNode>(out.tuple.IntAt(0));
        Send(at, dest, kPortFix, std::move(out));
      } else {
        ship(at).ProcessInsert(out.tuple, out.pv);
      }
    } else {
      SendDirect(at, std::move(out));
    }
  }
}

void ReachableRuntime::SendDirect(LogicalNode at, Update out) {
  LogicalNode dest = static_cast<LogicalNode>(out.tuple.IntAt(0));
  ship(at).ProcessDelete(out.tuple);
  Send(at, dest, kPortFix, std::move(out));
}

void ReachableRuntime::HandleFixInsert(LogicalNode at, const Tuple& tuple,
                                       const Prov& pv) {
  Prov guarded = GuardIncoming(pv);
  if (guarded.IsFalse()) return;
  bool is_new = false;
  std::optional<Prov> delta = fix(at).ProcessInsert(tuple, guarded, &is_new);
  if (!delta.has_value()) return;
  if (is_new) LogViewDelta(tuple, /*added=*/true);
  // The fixpoint feeds into the recursive subplan: probe the local join's
  // reachable side. Absorption mode propagates the provenance delta;
  // relative mode propagates a *reference* to this tuple (derivation-edge
  // model), so only the first derivation probes — downstream derivations
  // point at the tuple, not at its provenance.
  if (opts_.prov == ProvMode::kRelative) {
    if (!is_new) return;
    ShipJoinOutputs(at, join(at).ProcessInsert(PipelinedHashJoin::kRight,
                                               tuple, RefProv(tuple)));
    return;
  }
  ShipJoinOutputs(
      at, join(at).ProcessInsert(PipelinedHashJoin::kRight, tuple, *delta));
}

void ReachableRuntime::HandleFixDelete(LogicalNode at, const Tuple& tuple) {
  if (!fix(at).ProcessDelete(tuple)) return;  // Already absent.
  LogViewDelta(tuple, /*added=*/false);
  // Over-deletion cascades through the local join probe side.
  std::vector<Update> outs =
      join(at).ProcessDelete(PipelinedHashJoin::kRight, tuple);
  for (Update& out : outs) SendDirect(at, std::move(out));
}

void ReachableRuntime::KillRuleState(LogicalNode at,
                                     const std::vector<bdd::Var>& fresh) {
  join(at).ProcessKill(fresh);
}

void ReachableRuntime::HandleBatch(const Envelope* envs, size_t n) {
  // The run shares one (dst, port): resolve the port dispatch once, then
  // apply the operator across the whole batch.
  LogicalNode at = envs[0].dst;
  switch (LocalPort(envs[0])) {
    case kPortJoinBuild:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          Prov guarded = GuardIncoming(u.pv);
          if (guarded.IsFalse()) continue;
          ShipJoinOutputs(at, join(at).ProcessInsert(PipelinedHashJoin::kLeft,
                                                     u.tuple, guarded));
        } else if (u.type == UpdateType::kDelete) {
          std::vector<Update> outs =
              join(at).ProcessDelete(PipelinedHashJoin::kLeft, u.tuple);
          for (Update& out : outs) SendDirect(at, std::move(out));
        }
      }
      return;
    case kPortFix:
      for (size_t i = 0; i < n; ++i) {
        const Update& u = envs[i].update;
        if (u.type == UpdateType::kInsert) {
          HandleFixInsert(at, u.tuple, u.pv);
        } else if (u.type == UpdateType::kDelete) {
          HandleFixDelete(at, u.tuple);
        }
      }
      return;
    default:
      RECNET_CHECK(false);
  }
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
    for (const Tuple& tuple : join(n).TuplesOn(PipelinedHashJoin::kRight)) {
      ShipJoinOutputs(n, join(n).Refire(PipelinedHashJoin::kRight, tuple));
    }
  }
}

size_t ReachableRuntime::RuleStateBytes() const {
  size_t bytes = 0;
  for (const auto& join : joins_) bytes += join->StateSizeBytes();
  return bytes;
}

}  // namespace recnet
