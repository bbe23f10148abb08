#ifndef RECNET_OPERATORS_MIN_SHIP_H_
#define RECNET_OPERATORS_MIN_SHIP_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/status.h"
#include "operators/update.h"

namespace recnet {

namespace persist {
class SnapshotReader;
class SnapshotWriter;
}  // namespace persist

// Shipping policy of the MinShip operator (paper Section 5).
enum class ShipMode {
  // Conventional Ship: every derivation is forwarded immediately. Used as
  // the no-MinShip ablation and by maintenance schemes without buffering.
  kDirect,
  // Buffer alternate derivations and flush them every `batch_window`
  // processed updates (the paper's eager strategy: "propagate state from
  // MinShip once a second").
  kEager,
  // Lazy provenance propagation: infinite batching interval; buffered
  // derivations are shipped only when the previously shipped derivation of
  // the same tuple is deleted (paper: "alternate derivations of a tuple
  // will only be propagated when they affect downstream results").
  kLazy,
};

const char* ShipModeName(ShipMode mode);

// Adaptive eager→lazy demotion ceiling: live BDD nodes of one tuple's
// merged absorption annotation (see MinShip). Calibrated on the fig07
// sweep: every converging eager cell's merged annotations stay under 384
// nodes (zero demotions ⇒ traffic bit-identical to the undemoted engine),
// while the one cell that blew the 45 s budget (Absorption-Eager x=1)
// crosses it within the first storms and converges in ~11 s demoted.
inline constexpr size_t kEagerDemoteWidth = 512;

// The MinShip operator (paper Algorithm 3).
//
// Always forwards the first derivation of each tuple; subsequent derivations
// are merged (with absorption) into a buffer (Pins). Bsent tracks what has
// been shipped so far. When a kill makes a shipped annotation false, the
// buffered alternative — if any survives — is promoted and shipped, so
// downstream state stays correct without eager propagation of every
// derivation.
//
// Adaptive eager→lazy demotion: eager mode pays for its freshness by
// re-shipping (and re-absorbing downstream) every buffered derivation each
// batch window — on dense fan-in that Or-churn is quadratic in annotation
// width and is exactly what blows the budget on the paper's hardest cell.
// When an absorption annotation this operator merges grows past
// kEagerDemoteWidth live BDD nodes, the operator demotes itself for the
// rest of the run: the periodic batch-window Flush stops and the buffer
// gets exactly lazy's treatment — alternates ship only when a kill
// promotes them — while FlushIfDemoted() re-absorbs the buffer against
// the shipped state at each quiescent point. Nothing buffered ships
// proactively once demoted: forwarding the wide annotations would seed
// downstream joins with huge operands and re-ignite the Or-storm the
// demotion exists to stop. Demotion is sticky (widths only grow;
// re-arming thrashes demote/flush cycles).
class MinShip {
 public:
  // `send` forwards an update towards its destination (routing by tuple is
  // the runtime's job).
  using SendFn = std::function<void(const Tuple&, const Prov&)>;

  MinShip(ProvMode prov_mode, ShipMode ship_mode, size_t batch_window,
          SendFn send);

  // Pre-sizes the shipped/buffered tables for an expected tuple count.
  void Reserve(size_t expected_tuples) {
    bsent_.reserve(expected_tuples);
    pins_.reserve(expected_tuples);
  }

  // Algorithm 3 main loop body for an insertion.
  void ProcessInsert(const Tuple& tuple, const Prov& pv);

  // Restricts killed variables across Bsent and Pins. Shipped annotations
  // that die are replaced by surviving buffered derivations, which are sent
  // (BatchShipLazy semantics). The kill itself is forwarded by the runtime.
  void ProcessKill(const std::vector<bdd::Var>& killed);

  // Set-mode retraction passthrough (DRed ships directly).
  void ProcessDelete(const Tuple& tuple);

  // Ships all buffered derivations (end-of-stream / timer flush,
  // Algorithm 3 line 33).
  void Flush();

  // Quiescence hook for the demotion policy: if this operator is demoted,
  // re-absorb the buffer against the shipped state (dropping pins that no
  // longer add anything) without shipping. The compaction generates no
  // traffic, so it never extends the drain.
  void FlushIfDemoted();

  bool demoted() const { return demoted_; }
  // Times this operator demoted eager→lazy (observability; surfaces as the
  // run metric ship_demotions).
  uint64_t demotions() const { return demotions_; }

  size_t StateSizeBytes() const;
  size_t buffered() const { return pins_.size(); }

  // Snapshot round-trip. Bsent re-inserts in iteration order (flat-table
  // layout reproduction); Pins additionally records its bucket count and
  // re-inserts in *reverse* iteration order — the node container prepends
  // within a bucket, so reverse insertion into the same bucket layout
  // rebuilds the exact iteration order the eager Flush and ProcessKill
  // trajectories depend on. LoadState requires an empty operator.
  void SaveState(persist::SnapshotWriter& w) const;
  Status LoadState(persist::SnapshotReader& r);

 private:
  ProvMode prov_mode_;
  ShipMode ship_mode_;
  size_t batch_window_;
  SendFn send_;
  size_t since_flush_ = 0;
  bool demoted_ = false;
  uint64_t demotions_ = 0;
  FlatTable<Tuple, Prov, TupleHash> bsent_;
  // The eager-mode Flush ships the buffer in iteration order, and delivery
  // order feeds back into absorption results (which annotation reaches a
  // fixpoint first decides what later derivations are absorbed into), so
  // the benchmark trajectories pin the exact message sequence. Pins stays
  // on the node-based container whose iteration order that sequence was
  // recorded under; it is the cold side of MinShip (only non-first
  // derivations land here), while the per-insert hot path — Bsent — is
  // flat.
  std::unordered_map<Tuple, Prov, TupleHash> pins_;
};

}  // namespace recnet

#endif  // RECNET_OPERATORS_MIN_SHIP_H_
