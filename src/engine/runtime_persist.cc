// Snapshot round-trips for the query runtimes. Each override appends to the
// base-class section (kill routing, pseudo-variables, run bookkeeping, base
// facts, every node's Fixpoint and MinShip, which also pins the node count)
// the state of the runtime's own rules, in iteration order, so a restored
// runtime's message trajectory is bit-identical to the saved one's.
// LoadState expects a freshly constructed runtime of the same program,
// options, and topology and refuses shape mismatches with InvalidArgument.

#include <utility>

#include "engine/reachable_runtime.h"
#include "engine/region_runtime.h"
#include "engine/shortest_path_runtime.h"
#include "persist/codec.h"

namespace recnet {

void ReachableRuntime::SaveState(persist::SnapshotWriter& w) const {
  RuntimeBase::SaveState(w);
  persist::Writer& raw = w.raw();
  // DRed's re-derivation base case fires links in exactly this order.
  for (const auto& dsts : links_by_src_) {
    raw.U32(static_cast<uint32_t>(dsts.size()));
    for (LogicalNode d : dsts) raw.I32(d);
  }
  for (const auto& join : joins_) join->SaveState(w);
}

Status ReachableRuntime::LoadState(persist::SnapshotReader& r) {
  RECNET_RETURN_IF_ERROR(RuntimeBase::LoadState(r));
  persist::Reader& raw = r.raw();
  for (auto& dsts : links_by_src_) {
    uint32_t ndsts = raw.U32();
    if (!raw.CanRead(static_cast<size_t>(ndsts) * 4)) break;
    RECNET_CHECK(dsts.empty());
    dsts.reserve(ndsts);
    for (uint32_t j = 0; j < ndsts; ++j) dsts.push_back(raw.I32());
  }
  for (auto& join : joins_) {
    if (!raw.ok()) break;
    RECNET_RETURN_IF_ERROR(join->LoadState(r));
  }
  return r.Check("reachable runtime state");
}

void ShortestPathRuntime::SaveState(persist::SnapshotWriter& w) const {
  RuntimeBase::SaveState(w);
  // The AggSel pair exists exactly when policy_ != kNone, which the
  // reconstructed runtime shares.
  for (const RuleNode& state : nodes_) {
    state.join->SaveState(w);
    if (state.agg_fix == nullptr) continue;
    state.agg_fix->SaveState(w);
    state.agg_ship->SaveState(w);
  }
}

Status ShortestPathRuntime::LoadState(persist::SnapshotReader& r) {
  RECNET_RETURN_IF_ERROR(RuntimeBase::LoadState(r));
  for (RuleNode& state : nodes_) {
    if (!r.raw().ok()) break;
    RECNET_RETURN_IF_ERROR(state.join->LoadState(r));
    if (state.agg_fix == nullptr) continue;
    RECNET_RETURN_IF_ERROR(state.agg_fix->LoadState(r));
    RECNET_RETURN_IF_ERROR(state.agg_ship->LoadState(r));
  }
  return r.Check("shortest-path runtime state");
}

void RegionRuntime::SaveState(persist::SnapshotWriter& w) const {
  RuntimeBase::SaveState(w);
  persist::Writer& raw = w.raw();
  // sizes_at_root_ iteration order is observable (LargestRegions walks it),
  // so reproduce it with the reverse-insertion bucket trick (see
  // MinShip::LoadState).
  raw.U64(sizes_at_root_.bucket_count());
  raw.U64(sizes_at_root_.size());
  for (const auto& [region, size] : sizes_at_root_) {
    raw.I32(region);
    raw.I64(size);
  }
  for (const auto& sizes : region_sizes_) sizes->SaveState(w);
}

Status RegionRuntime::LoadState(persist::SnapshotReader& r) {
  RECNET_RETURN_IF_ERROR(RuntimeBase::LoadState(r));
  persist::Reader& raw = r.raw();
  uint64_t buckets = raw.U64();
  uint64_t nsizes = raw.Count(3);
  std::vector<std::pair<int, int64_t>> saved_sizes;
  saved_sizes.reserve(nsizes);
  for (uint64_t i = 0; i < nsizes && raw.ok(); ++i) {
    int region = static_cast<int>(raw.I32());
    int64_t size = raw.I64();
    saved_sizes.emplace_back(region, size);
  }
  RECNET_CHECK(sizes_at_root_.empty());
  sizes_at_root_.rehash(static_cast<size_t>(buckets));
  for (auto it = saved_sizes.rbegin(); it != saved_sizes.rend(); ++it) {
    sizes_at_root_.emplace(it->first, it->second);
  }
  for (auto& sizes : region_sizes_) {
    if (!raw.ok()) break;
    RECNET_RETURN_IF_ERROR(sizes->LoadState(r));
  }
  return r.Check("region runtime state");
}

}  // namespace recnet
