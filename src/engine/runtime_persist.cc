// Snapshot round-trips for the query runtimes. Each override appends to the
// base-class section (kill routing, pseudo-variables, run bookkeeping, base
// facts, every node's Fixpoint and MinShip, which also pins the node count)
// the state of the runtime's own rules, in iteration order, so a restored
// runtime's message trajectory is bit-identical to the saved one's.
// LoadState expects a freshly constructed runtime of the same program,
// options, and topology and refuses shape mismatches with InvalidArgument.

#include <utility>

#include "engine/closure_runtime.h"
#include "engine/region_runtime.h"
#include "persist/codec.h"

namespace recnet {

void ClosureRuntime::SaveState(persist::SnapshotWriter& w) const {
  RuntimeBase::SaveState(w);
  // The AggSel pair exists exactly when the shape has aggregate
  // selections, which the reconstructed runtime shares. DRed's
  // re-derivation seed is the base-fact table, already in the base section.
  for (const RuleNode& node : nodes_) {
    node.join->SaveState(w);
    if (node.agg_fix == nullptr) continue;
    node.agg_fix->SaveState(w);
    node.agg_ship->SaveState(w);
  }
}

Status ClosureRuntime::LoadState(persist::SnapshotReader& r) {
  RECNET_RETURN_IF_ERROR(RuntimeBase::LoadState(r));
  for (RuleNode& node : nodes_) {
    if (!r.raw().ok()) break;
    RECNET_RETURN_IF_ERROR(node.join->LoadState(r));
    if (node.agg_fix == nullptr) continue;
    RECNET_RETURN_IF_ERROR(node.agg_fix->LoadState(r));
    RECNET_RETURN_IF_ERROR(node.agg_ship->LoadState(r));
  }
  return r.Check("closure runtime state");
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
