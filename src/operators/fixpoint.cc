#include "operators/fixpoint.h"

namespace recnet {

std::optional<Prov> Fixpoint::ProcessInsert(const Tuple& tuple,
                                            const Prov& pv, bool* is_new) {
  if (is_new != nullptr) *is_new = false;
  if (pv.IsFalse()) return std::nullopt;
  // Single probe with one hash computation covers both the first-derivation
  // and the merge path.
  auto [it, inserted] = view_.try_emplace(tuple, pv);
  if (inserted) {
    // Algorithm 1 lines 12-15: first derivation; store and propagate as-is.
    if (is_new != nullptr) *is_new = true;
    return pv;
  }
  // Algorithm 1 lines 17-25: merge and propagate the non-absorbed delta.
  // The absorption test builds nothing; the Or is built only when kept.
  Prov& stored = it->second;
  if (pv.Implies(stored)) return std::nullopt;  // Fully absorbed.
  Prov merged = stored.Or(pv);
  // deltaPv = newPv ∧ ¬oldPv (line 19). Since newPv = oldPv ∨ pv, this
  // equals pv ∧ ¬oldPv — the same canonical function computed over the
  // (usually much smaller) incoming annotation instead of the merged one.
  Prov delta = pv.DeltaOver(stored);
  stored = std::move(merged);
  return delta;
}

Fixpoint::KillResult Fixpoint::ProcessKill(
    const std::vector<bdd::Var>& killed) {
  KillResult result;
  const uint64_t mask = bdd::Manager::SigMask(killed);
  for (auto it = view_.begin(); it != view_.end();) {
    if (!it->second.RestrictFalseInPlace(killed, mask)) {
      ++it;
      continue;
    }
    result.changed = true;
    if (it->second.IsFalse()) {
      result.removed.push_back(it->first);
      it = view_.erase(it);
      continue;
    }
    ++it;
  }
  return result;
}

bool Fixpoint::ProcessDelete(const Tuple& tuple) {
  return view_.erase(tuple) > 0;
}

const Prov* Fixpoint::Lookup(const Tuple& tuple) const {
  auto it = view_.find(tuple);
  return it == view_.end() ? nullptr : &it->second;
}

size_t Fixpoint::StateSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [tuple, pv] : view_) {
    bytes += tuple.WireSizeBytes() + pv.WireSizeBytes();
  }
  return bytes;
}

}  // namespace recnet
