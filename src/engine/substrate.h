#ifndef RECNET_ENGINE_SUBSTRATE_H_
#define RECNET_ENGINE_SUBSTRATE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "fault/fault.h"
#include "net/router.h"

namespace recnet {

class RuntimeBase;

// Deployment parameters of the shared substrate (they describe the network,
// not any one view, so they are fixed per substrate rather than per
// runtime).
struct SubstrateOptions {
  // Physical peers the logical nodes are mapped onto (paper default: 12).
  int num_physical = 12;
  // Router shards the logical node-id space is partitioned across. With
  // more than one shard the drain becomes a superstep loop whose shards
  // run on parallel worker threads (every provenance mode, relative
  // included: tuple variables come from per-shard id streams and kill
  // visibility is published at superstep barriers); results and traffic
  // counters are bit-identical for every shard count.
  int shards = 1;
  // Fault injection: when `injector` is set it is shared with the caller
  // (Session keeps one injector across substrate rebuilds so the fault
  // clock survives recovery); otherwise a private injector is built from
  // `faults` when that plan enables anything.
  std::shared_ptr<fault::FaultInjector> injector;
  fault::FaultPlan faults;
};

// The shared execution substrate of one session: a single sharded Router, a
// single BDD manager, a session-wide base-variable space, and a dynamic
// logical node-id space. One or more distributed runtimes attach to it as
// co-resident views; each attached runtime is assigned a router port
// namespace so its messages interleave with the others' on the one network
// without collisions, and each keeps its own NetworkStats.
//
// A runtime built outside a Session (tests and benchmarks) is simply the
// only view attached to its own Substrate.
class Substrate {
 public:
  Substrate(int num_nodes, const SubstrateOptions& options);
  ~Substrate();

  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  Router& router() { return router_; }
  const Router& router() const { return router_; }
  bdd::Manager* bdd_manager() { return &bdd_; }

  int num_logical() const { return router_.num_logical(); }

  // --- Dynamic node-id space ------------------------------------------------

  // Grows the logical node-id space to at least `num_nodes` (no-op when the
  // space is already that large) and notifies every attached runtime so
  // graph-shaped views extend their per-node state. Late base facts that
  // mention unseen node ids route through here instead of erroring. New
  // nodes land on shard (id % shards), so growth never rebalances existing
  // nodes' queues or state.
  void EnsureNodes(int num_nodes);

  // --- Session-wide base-variable space -------------------------------------
  //
  // Variables are allocated from per-shard interleaved id streams: the
  // stream of router shard s hands out ids k*S + s (S = shard count, fixed
  // at construction), and a caller draws from the stream of the shard it is
  // running on (Router::current_shard(); external callers — fact ingestion,
  // AfterQuiescent — use stream 0). Within a stream ids are monotone in
  // allocation order, so a view's variables keep their relative order and
  // its BDDs stay isomorphic to a private-manager build; across streams the
  // interleaving lets relative-provenance views allocate tuple variables
  // from parallel shard workers with no lock and no schedule dependence. At
  // S == 1 the scheme degenerates to the classic sequential counter. Id
  // VALUES differ across shard counts, but no observable (traffic counters,
  // wire sizes, Scan results) depends on them — only the tuple↔variable
  // bijection and per-stream order do.

  bdd::Var AllocVar();

  // Dead-variable set with epoch-quantized visibility. A kill marked while
  // a delivery generation is in flight (Router::draining()) is *staged*: it
  // becomes visible to is_dead() only at the next generation boundary (or
  // at quiescence), uniformly for every shard count — immediate visibility
  // inside a generation would depend on the parallel schedule. Kills marked
  // outside a generation (fact deletion, AfterQuiescent sweeps) are visible
  // immediately, as before. Returns true when `v` was newly marked (callers
  // keep per-view dead counts for their fast paths); safe from parallel
  // shard workers.
  bool MarkDead(bdd::Var v);
  bool is_dead(bdd::Var v) const {
    if ((v >> kDeadChunkBits) >= kMaxDeadChunks) return false;
    const std::atomic<uint32_t>* chunk =
        dead_chunks_[v >> kDeadChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return false;
    uint32_t t = chunk[v & kDeadChunkMask].load(std::memory_order_relaxed);
    // Stored value is epoch-at-mark + 1 (0 = alive). Visible once the
    // current epoch has passed it: staged marks carry epoch + 1 and so stay
    // hidden until the epoch advances at a barrier.
    return t != 0 && static_cast<uint64_t>(t) <= dead_epoch() + 1;
  }
  bool AnyDead() const {
    return num_dead_.load(std::memory_order_relaxed) > 0;
  }

  // Snapshot hooks for the allocator. The byte vector has one entry per id
  // below the allocation watermark: 0 = alive (or an unallocated hole of an
  // interleaved stream), 1 = dead and visible, 2 = dead but still staged
  // (marked mid-generation, not yet published at a barrier) — so a
  // micro-checkpoint taken between generations round-trips visibility
  // exactly. Restore requires a virgin substrate and re-seeds every id
  // stream past the watermark, for any shard count.
  std::vector<char> dead_vars() const;
  void RestoreDeadVars(std::vector<char> dead);

  // --- View registration ----------------------------------------------------

  // Attaches `runtime` as a co-resident view and returns its port-namespace
  // id (0 for the first view). Delivery batches whose ports fall in that
  // namespace are dispatched to the runtime's handler.
  int Attach(RuntimeBase* runtime);
  // Unregisters a runtime (called from ~RuntimeBase). Its namespace id is
  // retired, never reused.
  void Detach(RuntimeBase* runtime);

  // --- Shared drain loop ----------------------------------------------------

  struct DrainBudget {
    // The initiating view's message budget (kept for the time-cap plumbing;
    // message arbitration is per attached view, see DrainToFixpoint).
    uint64_t message_budget = 0;
    // Wall-clock cap in seconds (0 = unlimited).
    double time_budget_s = 0;
  };

  struct DrainOutcome {
    // The initiator's wall-clock budget expired (the drain stopped; nothing
    // was purged — the caller decides who pays, as before).
    bool timed_out = false;
    // An injected infrastructure fault (worker death / allocation failure)
    // fired: the drain stopped at a generation boundary with queues intact.
    // `fault_site` names the fault for diagnostics. Session's recovery path
    // restores the last micro-checkpoint and re-drains.
    bool faulted = false;
    std::string fault_site;
    // Views whose own message budgets ran out during the drain. Each was
    // aborted in place (queued traffic purged and uncharged, metrics frozen
    // via RuntimeBase::AbortForBudget); co-resident views kept draining.
    std::vector<int> aborted;
  };

  // Drains the shared network to session-wide quiescence, then polls every
  // attached runtime's AfterQuiescent hook (DRed re-derivation,
  // relative-mode derivability sweeps) and keeps draining until no view
  // seeds more work. On a single-shard substrate this is the classic
  // sequential FIFO drain, bit-for-bit; on a sharded substrate it is a
  // superstep loop whose generations drain on parallel workers for every
  // provenance mode (relative views allocate tuple variables from
  // per-shard id streams and their kills publish at barriers, so they no
  // longer serialize the schedule).
  //
  // Message budgets are arbitrated per view: each attached runtime is
  // charged for the deliveries *it* received (Router::DeliveredByNs against
  // a baseline taken at drain entry) against its own message_budget, so one
  // view's runaway fixpoint can no longer starve or falsely abort a
  // co-resident view sharing the drain. A view that exhausts its budget is
  // aborted immediately — exactly the cutoff semantics a solo run had —
  // while the drain continues for the survivors.
  DrainOutcome DrainToFixpoint(const DrainBudget& budget);

  // --- Fault injection ------------------------------------------------------

  // The substrate's fault injector (null on a lossless, fault-free
  // substrate). Owned jointly with the Session that threads it through
  // rebuilds.
  fault::FaultInjector* fault_injector() const { return injector_.get(); }

  // Installs a barrier hook the drain loops call every `interval`
  // generations (superstep barriers on a sharded drain, delivery rounds on
  // the sequential one) with all workers joined — Session points it at its
  // micro-checkpoint capture. interval == 0 disables periodic invocation.
  void set_barrier_hook(std::function<void()> hook, uint64_t interval) {
    barrier_hook_ = std::move(hook);
    hook_interval_ = interval;
    gens_since_hook_ = 0;
  }

 private:
  // Per-drain budget bookkeeping: one slot per namespace, baselines taken at
  // drain entry so a view is charged only for what this drain delivered to
  // it.
  struct ViewBudget {
    RuntimeBase* rt = nullptr;
    uint64_t base = 0;
    uint64_t budget = 0;
  };
  struct Arbitration {
    std::vector<ViewBudget> views;
    // Indexed by namespace; doubles as the PollAfterQuiescent skip set.
    std::vector<char> aborted;
  };
  Arbitration BeginArbitration() const;
  // Aborts every live view at or over its budget (purge + frozen metrics via
  // AbortForBudget) and records it in `out`. Run between delivery steps and
  // once more at quiescence, so a view stops at exactly the delivery count a
  // solo drain would have stopped at.
  void EnforceBudgets(Arbitration* arb, DrainOutcome* out);
  // Deliveries possible before the tightest surviving view reaches its
  // budget; delivery steps are clipped to this so no view overshoots.
  uint64_t StepCapacity(const Arbitration& arb) const;

  void Dispatch(const Envelope* envs, size_t n);
  // Polls AfterQuiescent on every live view not marked in `skip_aborted`
  // (budget-aborted views must not seed new work for a drain that just
  // discarded their queues).
  bool PollAfterQuiescent(const std::vector<char>& skip_aborted);
  // The pre-sharding sequential drain (single-shard fast path).
  DrainOutcome DrainSequential(const DrainBudget& budget);
  // Superstep drain across router shards.
  DrainOutcome DrainSupersteps(const DrainBudget& budget);
  // Ticks the injector's generation clock and polls the coordinator-side
  // infrastructure faults. Returns true (and fills `out`) when one fired —
  // the drain stops with queues intact so recovery can roll back.
  bool PollFault(DrainOutcome* out);
  // Invokes the barrier hook every hook_interval_ generations (workers
  // joined at the call site).
  void MaybeBarrierHook();

  // The dead-variable visibility epoch: router generation merges plus
  // quiescence points, both shard-count-invariant BSP boundaries. Advances
  // only with workers joined, so it is stable within a generation.
  uint64_t dead_epoch() const {
    return router_.generations_begun() + quiesce_epochs_;
  }
  // The slot holding variable v's mark, materializing its chunk on first
  // use (chunk allocation is double-checked under a spinlock; published
  // chunks never move, so readers need only the acquire load in is_dead).
  std::atomic<uint32_t>& DeadSlot(bdd::Var v);
  // Allocation watermark: one past the highest id any stream has handed
  // out (ids below it from less-advanced streams are unallocated holes).
  uint64_t VarWatermark() const;

  // Declaration order is load-bearing: queued Envelopes hold Prov handles
  // into bdd_, so the router (destroyed first, in reverse order) must be
  // declared after the manager.
  bdd::Manager bdd_;
  Router router_;
  // Attached runtimes, indexed by namespace id (nullptr once detached).
  std::vector<RuntimeBase*> runtimes_;
  // Dead-variable store: a fixed spine of lazily allocated chunks of
  // per-variable epoch marks (0 = alive). Chunks are append-only and never
  // move, so parallel workers mark and query without locks while other
  // streams allocate.
  static constexpr size_t kDeadChunkBits = 12;
  static constexpr size_t kDeadChunkSize = size_t{1} << kDeadChunkBits;
  static constexpr size_t kDeadChunkMask = kDeadChunkSize - 1;
  static constexpr size_t kMaxDeadChunks = size_t{1} << 12;  // 16M variables.
  std::array<std::atomic<std::atomic<uint32_t>*>, kMaxDeadChunks>
      dead_chunks_{};
  std::atomic<bool> dead_alloc_lock_{false};
  std::atomic<size_t> num_dead_{0};
  // Per-shard variable-stream counters: stream s has handed out ids
  // k*S + s for k < next_k_[s]. Each stream is only advanced by its own
  // shard's worker (or the coordinator, for stream 0), so no atomics.
  std::vector<uint64_t> next_k_;
  // Quiescence epochs folded into dead_epoch() (bumped once per
  // PollAfterQuiescent round, identically on both drain paths).
  uint64_t quiesce_epochs_ = 0;
  // Fault injection (null when the options enabled none).
  std::shared_ptr<fault::FaultInjector> injector_;
  std::function<void()> barrier_hook_;
  uint64_t hook_interval_ = 0;
  uint64_t gens_since_hook_ = 0;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_SUBSTRATE_H_
