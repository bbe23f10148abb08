#include "engine/views.h"

namespace recnet {
namespace {

Status RunToFixpoint(RuntimeBase* rt) {
  if (!rt->Run()) {
    return Status::ResourceExhausted(
        "message budget exceeded before fixpoint");
  }
  return Status::OK();
}

}  // namespace

Status ReachabilityView::Apply() { return RunToFixpoint(&rt_); }

void SoftStateReachabilityView::InsertLink(int src, int dst, double ttl) {
  Tuple link = Tuple::OfInts({src, dst});
  if (clock_.Contains(link)) {
    // Renewal: soft-state refresh extends the deadline; the view tuple and
    // its base variable stay alive, so nothing propagates.
    clock_.Insert(link, ttl);
    return;
  }
  clock_.Insert(link, ttl);
  rt_.InsertLink(src, dst);
}

void SoftStateReachabilityView::DeleteLink(int src, int dst) {
  clock_.Remove(Tuple::OfInts({src, dst}));
  rt_.DeleteLink(src, dst);
}

void SoftStateReachabilityView::AdvanceTime(double t) {
  for (const Tuple& expired : clock_.AdvanceTo(t)) {
    rt_.DeleteLink(static_cast<int>(expired.IntAt(0)),
                   static_cast<int>(expired.IntAt(1)));
  }
}

Status SoftStateReachabilityView::Apply() { return RunToFixpoint(&rt_); }

std::optional<std::vector<std::pair<int, int>>> ReachabilityView::Why(
    int src, int dst) const {
  const Prov* pv = rt_.ViewProvenance(src, dst);
  if (pv == nullptr || pv->mode() != ProvMode::kAbsorption) {
    return std::nullopt;
  }
  std::vector<std::pair<bdd::Var, bool>> assignment;
  const bdd::Bdd& b = pv->bdd();
  if (!b.manager()->AnyWitness(b.index(), &assignment)) return std::nullopt;
  // Map witness variables back to the live links they annotate.
  std::vector<std::pair<int, int>> links;
  for (const auto& [var, value] : assignment) {
    if (!value) continue;
    auto link = rt_.LinkOfVar(var);
    if (link.has_value()) links.push_back(*link);
  }
  return links;
}

}  // namespace recnet
