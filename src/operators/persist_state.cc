// Snapshot round-trips for the stateful operators. Kept in one translation
// unit so the operator headers stay free of the persistence layer: each
// SaveState writes the operator's tables in iteration order and each
// LoadState re-inserts in an order that reproduces the container layout,
// because post-restore trajectories must be bit-identical and iteration
// order feeds back into message order (MinShip flushes, join probes) and
// absorption results.

#include <utility>
#include <vector>

#include "operators/agg_sel.h"
#include "operators/fixpoint.h"
#include "operators/group_by.h"
#include "operators/hash_join.h"
#include "operators/min_ship.h"
#include "persist/codec.h"

namespace recnet {

void Fixpoint::SaveState(persist::SnapshotWriter& w) const {
  w.raw().U64(view_.size());
  for (const auto& [tuple, pv] : view_) {
    w.PutTuple(tuple);
    w.PutProv(pv);
  }
}

Status Fixpoint::LoadState(persist::SnapshotReader& r) {
  RECNET_CHECK(view_.empty());
  uint64_t n = r.raw().Count(3);
  view_.reserve(n);
  for (uint64_t i = 0; i < n && r.raw().ok(); ++i) {
    Tuple tuple = r.GetTuple();
    Prov pv = r.GetProv();
    view_.try_emplace(tuple, std::move(pv));
  }
  return r.Check("fixpoint state");
}

void PipelinedHashJoin::SaveState(persist::SnapshotWriter& w) const {
  for (const SideState& s : side_) {
    w.raw().U64(s.index.size());
    for (const auto& [key, rows] : s.index) {
      w.PutTuple(key);
      w.raw().U32(static_cast<uint32_t>(rows.size()));
      for (const Tuple& row : rows) w.PutTuple(row);
    }
    w.raw().U64(s.prov.size());
    for (const auto& [tuple, pv] : s.prov) {
      w.PutTuple(tuple);
      w.PutProv(pv);
    }
  }
}

Status PipelinedHashJoin::LoadState(persist::SnapshotReader& r) {
  for (SideState& s : side_) {
    RECNET_CHECK(s.index.empty() && s.prov.empty());
    uint64_t nkeys = r.raw().Count(3);
    s.index.reserve(nkeys);
    for (uint64_t i = 0; i < nkeys && r.raw().ok(); ++i) {
      Tuple key = r.GetTuple();
      uint32_t nrows = r.raw().U32();
      if (!r.raw().CanRead(nrows)) break;
      std::vector<Tuple>& rows = s.index[key];
      rows.reserve(nrows);
      for (uint32_t j = 0; j < nrows; ++j) rows.push_back(r.GetTuple());
    }
    uint64_t nprov = r.raw().Count(3);
    s.prov.reserve(nprov);
    for (uint64_t i = 0; i < nprov && r.raw().ok(); ++i) {
      Tuple tuple = r.GetTuple();
      Prov pv = r.GetProv();
      s.prov.try_emplace(tuple, std::move(pv));
    }
  }
  return r.Check("hash-join state");
}

void MinShip::SaveState(persist::SnapshotWriter& w) const {
  w.raw().U64(since_flush_);
  // Demotion state (snapshot v3+): a micro-checkpoint can land while the
  // operator is demoted mid-drain, and recovery must resume with the same
  // policy state for the replayed trajectory to stay bit-identical.
  w.raw().Bool(demoted_);
  w.raw().U64(demotions_);
  w.raw().U64(bsent_.size());
  for (const auto& [tuple, pv] : bsent_) {
    w.PutTuple(tuple);
    w.PutProv(pv);
  }
  w.raw().U64(pins_.bucket_count());
  w.raw().U64(pins_.size());
  for (const auto& [tuple, pv] : pins_) {
    w.PutTuple(tuple);
    w.PutProv(pv);
  }
}

Status MinShip::LoadState(persist::SnapshotReader& r) {
  RECNET_CHECK(bsent_.empty() && pins_.empty());
  since_flush_ = static_cast<size_t>(r.raw().U64());
  demoted_ = r.raw().Bool();
  demotions_ = r.raw().U64();
  uint64_t nsent = r.raw().Count(3);
  bsent_.reserve(nsent);
  for (uint64_t i = 0; i < nsent && r.raw().ok(); ++i) {
    Tuple tuple = r.GetTuple();
    Prov pv = r.GetProv();
    bsent_.try_emplace(tuple, std::move(pv));
  }
  // Pins lives on a node-based map whose iteration order is observable (the
  // eager Flush ships in it, ProcessKill promotes in it). libstdc++ chains
  // all nodes on one list segmented by bucket and *prepends* on insert, so
  // inserting the saved sequence in reverse, into the saved bucket layout,
  // reconstructs the exact order: each insert puts its node in front of the
  // nodes of its bucket inserted after it — which are exactly the ones that
  // followed it in the saved order.
  uint64_t buckets = r.raw().U64();
  uint64_t npins = r.raw().Count(3);
  std::vector<std::pair<Tuple, Prov>> saved;
  saved.reserve(npins);
  for (uint64_t i = 0; i < npins && r.raw().ok(); ++i) {
    Tuple tuple = r.GetTuple();
    Prov pv = r.GetProv();
    saved.emplace_back(std::move(tuple), std::move(pv));
  }
  RECNET_RETURN_IF_ERROR(r.Check("min-ship state"));
  pins_.rehash(static_cast<size_t>(buckets));
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
    pins_.emplace(std::move(it->first), std::move(it->second));
  }
  return Status::OK();
}

void AggSel::SaveState(persist::SnapshotWriter& w) const {
  w.raw().U64(groups_.size());
  for (const auto& [group, state] : groups_) {
    w.PutTuple(group);
    w.raw().U32(static_cast<uint32_t>(state.members.size()));
    for (const Tuple& m : state.members) w.PutTuple(m);
    w.raw().U32(static_cast<uint32_t>(state.best.size()));
    for (const std::optional<Tuple>& b : state.best) {
      w.raw().Bool(b.has_value());
      if (b.has_value()) w.PutTuple(*b);
    }
  }
  w.raw().U64(prov_.size());
  for (const auto& [tuple, pv] : prov_) {
    w.PutTuple(tuple);
    w.PutProv(pv);
  }
}

Status AggSel::LoadState(persist::SnapshotReader& r) {
  RECNET_CHECK(groups_.empty() && prov_.empty());
  uint64_t ngroups = r.raw().Count(3);
  groups_.reserve(ngroups);
  for (uint64_t i = 0; i < ngroups && r.raw().ok(); ++i) {
    Tuple group = r.GetTuple();
    GroupState& state = groups_[group];
    uint32_t nmembers = r.raw().U32();
    if (!r.raw().CanRead(nmembers)) break;
    state.members.reserve(nmembers);
    for (uint32_t j = 0; j < nmembers; ++j) {
      state.members.push_back(r.GetTuple());
    }
    uint32_t nbest = r.raw().U32();
    if (!r.raw().CanRead(nbest)) break;
    state.best.reserve(nbest);
    for (uint32_t j = 0; j < nbest; ++j) {
      if (r.raw().Bool()) {
        state.best.emplace_back(r.GetTuple());
      } else {
        state.best.emplace_back(std::nullopt);
      }
    }
  }
  uint64_t nprov = r.raw().Count(3);
  prov_.reserve(nprov);
  for (uint64_t i = 0; i < nprov && r.raw().ok(); ++i) {
    Tuple tuple = r.GetTuple();
    Prov pv = r.GetProv();
    prov_.try_emplace(tuple, std::move(pv));
  }
  return r.Check("agg-sel state");
}

void GroupByAggregate::SaveState(persist::SnapshotWriter& w) const {
  w.raw().U64(groups_.size());
  for (const auto& [group, state] : groups_) {
    w.PutTuple(group);
    w.raw().U32(static_cast<uint32_t>(state.values.size()));
    for (const std::map<double, int>& multiset : state.values) {
      w.raw().U32(static_cast<uint32_t>(multiset.size()));
      for (const auto& [value, mult] : multiset) {
        w.raw().F64(value);
        w.raw().I32(mult);
      }
    }
    w.raw().U32(static_cast<uint32_t>(state.sum.size()));
    for (double s : state.sum) w.raw().F64(s);
    w.raw().I64(state.count);
  }
}

Status GroupByAggregate::LoadState(persist::SnapshotReader& r) {
  RECNET_CHECK(groups_.empty());
  uint64_t ngroups = r.raw().Count(3);
  groups_.reserve(ngroups);
  for (uint64_t i = 0; i < ngroups && r.raw().ok(); ++i) {
    Tuple group = r.GetTuple();
    GroupState& state = groups_[group];
    uint32_t nvalues = r.raw().U32();
    if (!r.raw().CanRead(nvalues)) break;
    state.values.resize(nvalues);
    for (uint32_t j = 0; j < nvalues; ++j) {
      uint32_t nentries = r.raw().U32();
      if (!r.raw().CanRead(static_cast<size_t>(nentries) * 12)) break;
      for (uint32_t k = 0; k < nentries; ++k) {
        double value = r.raw().F64();
        int mult = r.raw().I32();
        state.values[j].emplace(value, mult);
      }
    }
    uint32_t nsums = r.raw().U32();
    if (!r.raw().CanRead(static_cast<size_t>(nsums) * 8)) break;
    state.sum.reserve(nsums);
    for (uint32_t j = 0; j < nsums; ++j) state.sum.push_back(r.raw().F64());
    state.count = r.raw().I64();
  }
  return r.Check("group-by state");
}

}  // namespace recnet
