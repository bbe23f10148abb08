#include "operators/hash_join.h"

#include <algorithm>

namespace recnet {

PipelinedHashJoin::PipelinedHashJoin(ProvMode mode,
                                     std::vector<size_t> left_key,
                                     std::vector<size_t> right_key,
                                     CombineFn combine)
    : mode_(mode), combine_(std::move(combine)) {
  side_[kLeft].key = std::move(left_key);
  side_[kRight].key = std::move(right_key);
  RECNET_CHECK_EQ(side_[kLeft].key.size(), side_[kRight].key.size());
}

void PipelinedHashJoin::Reserve(size_t expected_per_side) {
  for (SideState& s : side_) {
    s.index.reserve(expected_per_side);
    s.prov.reserve(expected_per_side);
  }
}

Tuple PipelinedHashJoin::KeyOf(const SideState& s, const Tuple& t) const {
  Tuple::Values key_values;
  for (size_t i : s.key) key_values.push_back(t.at(i));
  return Tuple(std::move(key_values));
}

std::vector<Update> PipelinedHashJoin::Probe(Side probe_side,
                                             const Tuple& tuple,
                                             const Prov& pv,
                                             UpdateType out_type) const {
  // Probe the *other* side with this tuple's key.
  Side self = probe_side;
  Side other = (self == kLeft) ? kRight : kLeft;
  std::vector<Update> out;
  Tuple key = KeyOf(side_[self], tuple);
  auto it = side_[other].index.find(key);
  if (it == side_[other].index.end()) return out;
  out.reserve(it->second.size());  // At most one update per match.
  for (const Tuple& match : it->second) {
    const Prov& match_pv = side_[other].prov.at(match);
    Tuple joined = (self == kLeft) ? combine_(tuple, match)
                                   : combine_(match, tuple);
    if (out_type == UpdateType::kInsert) {
      // HalfPipeIns line 12: u'.pv = u.pv ∧ pj[t].
      Prov joined_pv = pv.And(match_pv);
      if (joined_pv.IsFalse()) continue;
      out.push_back(Update::Insert(std::move(joined), std::move(joined_pv)));
    } else {
      out.push_back(Update::Delete(std::move(joined)));
    }
  }
  return out;
}

std::vector<Update> PipelinedHashJoin::ProcessInsert(Side side,
                                                     const Tuple& tuple,
                                                     const Prov& delta_pv) {
  SideState& s = side_[side];
  auto [it, is_new] = s.prov.try_emplace(tuple, delta_pv);
  if (is_new) {
    // HalfPipeIns lines 2-4: new tuple; index it under its join key.
    s.index[KeyOf(s, tuple)].push_back(tuple);
    return Probe(side, tuple, delta_pv, UpdateType::kInsert);
  }
  // HalfPipeIns line 6: merge provenance; only a changed annotation
  // produces output (line 8). The absorption test builds no BDD.
  if (delta_pv.Implies(it->second)) return {};
  it->second = it->second.Or(delta_pv);
  return Probe(side, tuple, delta_pv, UpdateType::kInsert);
}

std::vector<Update> PipelinedHashJoin::ProcessDelete(Side side,
                                                     const Tuple& tuple) {
  // Tuple-level deletion, used by DRed's over-deletion cascade (kSet) and
  // by the closure runtime's retraction stream in the provenance modes
  // (aggregate selection displaces exact tuples; base-variable death goes
  // through ProcessKill instead).
  SideState& s = side_[side];
  auto it = s.prov.find(tuple);
  if (it == s.prov.end()) return {};
  s.prov.erase(it);
  RemoveFromIndex(&s, tuple);
  // HalfPipeDel lines 9-16: cascade retractions of all join results.
  return Probe(side, tuple, Prov::True(mode_, nullptr), UpdateType::kDelete);
}

void PipelinedHashJoin::ProcessKill(const std::vector<bdd::Var>& killed) {
  const uint64_t mask = bdd::Manager::SigMask(killed);
  for (SideState& s : side_) {
    for (auto it = s.prov.begin(); it != s.prov.end();) {
      if (it->second.RestrictFalseInPlace(killed, mask) &&
          it->second.IsFalse()) {
        Tuple dead = it->first;
        it = s.prov.erase(it);
        RemoveFromIndex(&s, dead);
        continue;
      }
      ++it;
    }
  }
}

std::vector<Update> PipelinedHashJoin::Refire(Side side,
                                              const Tuple& tuple) const {
  auto it = side_[side].prov.find(tuple);
  if (it == side_[side].prov.end()) return {};
  return Probe(side, tuple, it->second, UpdateType::kInsert);
}

bool PipelinedHashJoin::Contains(Side side, const Tuple& tuple) const {
  return side_[side].prov.find(tuple) != side_[side].prov.end();
}

void PipelinedHashJoin::RemoveFromIndex(SideState* s, const Tuple& t) {
  auto idx = s->index.find(KeyOf(*s, t));
  RECNET_CHECK(idx != s->index.end());
  auto& bucket = idx->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), t), bucket.end());
  if (bucket.empty()) s->index.erase(idx);
}

size_t PipelinedHashJoin::StateSizeBytes() const {
  size_t bytes = 0;
  for (const SideState& s : side_) {
    for (const auto& [tuple, pv] : s.prov) {
      bytes += tuple.WireSizeBytes() + pv.WireSizeBytes();
    }
  }
  return bytes;
}

std::vector<Tuple> PipelinedHashJoin::TuplesOn(Side side) const {
  std::vector<Tuple> out;
  out.reserve(side_[side].prov.size());
  for (const auto& [tuple, pv] : side_[side].prov) out.push_back(tuple);
  return out;
}

}  // namespace recnet
