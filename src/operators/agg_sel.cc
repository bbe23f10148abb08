#include "operators/agg_sel.h"

#include <algorithm>

namespace recnet {
namespace {

double NumericOf(const Value& v) {
  return v.is_double() ? v.AsDouble() : static_cast<double>(v.AsInt());
}

}  // namespace

AggSel::AggSel(ProvMode mode, std::vector<size_t> group_cols,
               std::vector<AggSpec> aggs)
    : mode_(mode), group_cols_(std::move(group_cols)), aggs_(std::move(aggs)) {
  RECNET_CHECK(!aggs_.empty());
}

Tuple AggSel::GroupOf(const Tuple& t) const {
  Tuple::Values values;
  for (size_t i : group_cols_) values.push_back(t.at(i));
  return Tuple(std::move(values));
}

bool AggSel::Better(const Tuple& a, const Tuple& b, size_t i) const {
  double va = NumericOf(a.at(aggs_[i].value_col));
  double vb = NumericOf(b.at(aggs_[i].value_col));
  return aggs_[i].fn == AggFn::kMin ? va < vb : va > vb;
}

std::optional<Tuple> AggSel::Rescan(const GroupState& g, size_t i) const {
  const Tuple* best = nullptr;
  for (const Tuple& t : g.members) {
    if (best == nullptr || Better(t, *best, i)) best = &t;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<Update> AggSel::ProcessInsert(const Tuple& tuple,
                                          const Prov& pv) {
  std::vector<Update> out;
  // Lines 7-12: update buffered state H and P.
  auto [pit, is_new] = prov_.emplace(tuple, pv);
  if (!is_new) {
    if (pv.Implies(pit->second)) return out;  // Line 13: provenance unchanged.
    pit->second = pit->second.Or(pv);
  }
  Tuple group = GroupOf(tuple);
  GroupState& g = groups_[group];
  if (g.best.empty()) g.best.resize(aggs_.size());
  if (is_new) g.members.push_back(tuple);

  // Lines 14-28: check each aggregate function.
  bool changed = false;
  std::vector<Tuple> displaced;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (!g.best[i].has_value()) {
      g.best[i] = tuple;
      changed = true;
    } else if (Better(tuple, *g.best[i], i)) {
      displaced.push_back(*g.best[i]);
      g.best[i] = tuple;
      changed = true;
    }
  }
  if (!changed) return out;  // Line 28: no aggregate affected; suppress.
  // Lines 20-25: retract displaced winners downstream — but only tuples
  // that are no longer the winner of *any* aggregate (a cost-displaced
  // tuple may still be the fewest-hops winner).
  for (const Tuple& d : displaced) {
    bool still_winning = false;
    for (const auto& b : g.best) {
      if (b.has_value() && *b == d) still_winning = true;
    }
    bool already_emitted = false;
    for (const Update& u : out) {
      if (u.type == UpdateType::kDelete && u.tuple == d) {
        already_emitted = true;
      }
    }
    if (!still_winning && !already_emitted) {
      out.push_back(Update::Delete(d));
    }
  }
  out.push_back(Update::Insert(tuple, pv));
  return out;
}

std::vector<Update> AggSel::ProcessDelete(const Tuple& tuple) {
  std::vector<Update> out;
  auto pit = prov_.find(tuple);
  if (pit == prov_.end()) return out;  // Line 30: unseen tuple; ignore.
  prov_.erase(pit);
  Tuple group = GroupOf(tuple);
  auto git = groups_.find(group);
  RECNET_CHECK(git != groups_.end());
  GroupState& g = git->second;
  g.members.erase(std::remove(g.members.begin(), g.members.end(), tuple),
                  g.members.end());

  // Lines 39-53: if the retracted tuple was a winner, promote a runner-up.
  bool changed = false;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (!g.best[i].has_value() || !(*g.best[i] == tuple)) continue;
    changed = true;
    g.best[i] = Rescan(g, i);
    if (g.best[i].has_value()) {
      out.push_back(Update::Insert(*g.best[i], prov_.at(*g.best[i])));
    }
  }
  if (g.members.empty()) groups_.erase(git);
  if (changed) out.push_back(Update::Delete(tuple));
  return out;
}

std::vector<Update> AggSel::ProcessKill(const std::vector<bdd::Var>& killed) {
  std::vector<Update> out;
  // Restrict every buffered annotation; collect tuples whose annotation
  // became false.
  std::vector<Tuple> dead;
  const uint64_t mask = bdd::Manager::SigMask(killed);
  for (auto it = prov_.begin(); it != prov_.end();) {
    if (it->second.RestrictFalseInPlace(killed, mask) &&
        it->second.IsFalse()) {
      dead.push_back(it->first);
      it = prov_.erase(it);
    } else {
      ++it;
    }
  }
  // First prune every dead tuple from its group (rescanning too early
  // could elect another not-yet-pruned dead tuple as the new winner), then
  // re-elect winners per affected group.
  std::vector<Tuple> affected_groups;
  for (const Tuple& tuple : dead) {
    Tuple group = GroupOf(tuple);
    auto git = groups_.find(group);
    if (git == groups_.end()) continue;
    GroupState& g = git->second;
    g.members.erase(std::remove(g.members.begin(), g.members.end(), tuple),
                    g.members.end());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (g.best[i].has_value() && *g.best[i] == tuple) {
        g.best[i].reset();
        affected_groups.push_back(group);
      }
    }
  }
  for (const Tuple& group : affected_groups) {
    auto git = groups_.find(group);
    if (git == groups_.end()) continue;
    GroupState& g = git->second;
    if (g.members.empty()) {
      groups_.erase(git);
      continue;
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (g.best[i].has_value()) continue;
      g.best[i] = Rescan(g, i);
      if (g.best[i].has_value()) {
        // The dead winner disappears downstream via the same kill; only the
        // replacement needs to travel.
        out.push_back(Update::Insert(*g.best[i], prov_.at(*g.best[i])));
      }
    }
  }
  return out;
}

size_t AggSel::StateSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [tuple, pv] : prov_) {
    bytes += tuple.WireSizeBytes() + pv.WireSizeBytes();
  }
  for (const auto& [group, g] : groups_) {
    bytes += group.WireSizeBytes() + 8 * g.best.size();
  }
  return bytes;
}

}  // namespace recnet
