#ifndef RECNET_NET_ROUTER_H_
#define RECNET_NET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/router_shard.h"
#include "operators/update.h"

namespace recnet {

namespace fault {
class FaultInjector;
}  // namespace fault

// Discrete, deterministic substitute for the paper's cluster + FreePastry
// transport: logical query-processing nodes exchange updates over reliable
// FIFO channels, and logical nodes are mapped onto a configurable number of
// physical peers (messages between co-located logical nodes cost nothing on
// the wire). The global FIFO order preserves per-channel ordering and makes
// runs exactly reproducible, which implements the paper's pipelined
// semi-naive evaluation ("tuples are processed in the order in which they
// arrive via the network, assuming a FIFO channel").
//
// Sharding: the logical node-id space is partitioned across `num_shards`
// RouterShards (node n resides on shard n % num_shards); each shard owns
// the queues, outgoing mailboxes, and per-namespace NetworkStats of its
// resident nodes. The drain is a superstep loop: within a generation every
// shard processes its slice of the global delivery sequence (in parallel
// worker threads when the engine requests it), sends land in per-(src shard,
// dst shard) mailboxes, and the superstep barrier merges all mailboxes by
// the canonical send-order key (Envelope::key_trig/key_sub) into the next
// generation, assigning global sequence numbers as it goes.
//
// Determinism contract: the barrier merge reconstructs, for every shard
// count, exactly the delivery order of the classic single-FIFO router —
// each node sees its messages in the same order, so per-node operator state,
// every sent message, and every NetworkStats counter except `batches` are
// bit-identical across shard counts (and identical to the pre-sharding
// sequential router when num_shards == 1). The one requirement on handlers
// is that messages sent while processing a delivery originate (`src`) from
// the node being processed — true of every runtime, and what charges the
// send to the right shard without locks.
//
// Delivery is batched: runs of consecutive-sequence messages bound for the
// same (dst, port) are handed to the batch handler as one contiguous run,
// amortizing handler dispatch and letting runtimes hoist per-destination
// state lookups (every envelope of a run hits the same operator input).
// Batching never reorders messages: every node sees its messages in FIFO
// order, and wire accounting happens at Send time.
//
// Port namespaces: several co-resident runtimes (the views of one
// recnet::Session) can share a router by operating in disjoint port ranges
// of kPortsPerNamespace ports each — view v uses absolute ports
// [v*kPortsPerNamespace, (v+1)*kPortsPerNamespace). Traffic accounting is
// kept per namespace (charged from the port at Send time), so every view
// reads exactly the counters it would have produced on a private router;
// batching keys on (dst, absolute port), so runs never mix views. A router
// starts with one namespace, which also absorbs any out-of-range port, so
// single-runtime use is unchanged.
class Router {
 public:
  // Receives contiguous same-(dst, port) runs.
  using BatchHandler = std::function<void(const Envelope* envs, size_t n)>;

  // Width of one port namespace. Wider than any runtime's operator-port
  // count (the region plan uses 5) to leave room for new operators.
  static constexpr int kPortsPerNamespace = 8;

  Router(int num_logical, int num_physical, int num_shards = 1);

  // Registers one more port namespace and returns its id (the first
  // namespace, id 0, always exists). Namespace `ns` owns absolute ports
  // [ns*kPortsPerNamespace, (ns+1)*kPortsPerNamespace) and its own
  // NetworkStats.
  int AddNamespace();
  int num_namespaces() const { return num_namespaces_; }

  // Extends the logical-node id space (the dynamic topology of a session);
  // shrinking is not supported. Physical peer count and shard count are
  // fixed at construction — new logical nodes map onto the existing peers
  // and shards (node n resides on shard n % num_shards, so growth never
  // rebalances existing nodes).
  void GrowLogical(int num_logical);

  // The delivery handler (required before the first drain): receives
  // contiguous same-(dst, port) runs.
  void set_batch_handler(BatchHandler handler) {
    batch_handler_ = std::move(handler);
  }

  int num_logical() const { return num_logical_; }
  int num_physical() const { return num_physical_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int PhysicalOf(LogicalNode n) const { return n % num_physical_; }
  int ShardOf(LogicalNode n) const {
    return static_cast<int>(n) % num_shards();
  }

  // The shard whose queue the calling thread is draining (0 outside a
  // drain). Runtimes index per-shard side state (e.g. view-delta logs) by
  // it so parallel workers never contend.
  static int current_shard() { return tls_shard_; }

  // Worker-thread budget of the parallel drain: the machine's hardware
  // concurrency unless overridden. Each worker drains a strided subset of
  // the shard queues, so any width produces the same result; spawning more
  // threads than hardware threads only buys context-switch and cold-cache
  // cost. Width 1 (a single-core host) short-circuits to the interleaved
  // drain — and lets the engine keep the BDD manager's cheaper
  // single-threaded mode.
  static int ParallelWidth();
  // Test hook: forces the width (0 restores hardware auto-detection), so
  // race detectors on small CI machines still exercise the genuinely
  // multi-threaded drain.
  static void OverrideParallelWidth(int width);

  // True when no shard holds an undelivered envelope of the current
  // generation (trivially true between generations). Generation boundaries
  // are shard-count invariant — PrepareGeneration is a no-op mid
  // generation — so this is where the engine publishes cross-node effects
  // staged during parallel dispatch. Coordinator-only (workers joined).
  bool generation_consumed() const {
    for (const RouterShard& s : shards_) {
      if (s.head < s.queue.size()) return false;
    }
    return true;
  }

  // Number of generations begun so far: incremented exactly when
  // PrepareGeneration merges staged sends into a new deliverable
  // generation. Generation boundaries are BSP points determined by the
  // message dependency depth alone, so this count is identical for every
  // shard count (single-shard StepBatch refills and superstep merges bump
  // it at the same logical instants). The engine derives the dead-variable
  // visibility epoch from it. Stable while workers run (merges happen with
  // workers joined).
  uint64_t generations_begun() const { return generations_; }

  // True while ProcessGeneration / StepBatch dispatches handlers. The
  // engine uses it to classify side effects as mid-generation (published at
  // the next barrier) versus external (immediately visible). Written only
  // with workers joined.
  bool draining() const { return draining_; }

  // Enqueues an update from `src` to `dst`. Wire cost is charged (to the
  // sending node's shard) only when the endpoints live on different
  // physical peers. Takes the update by rvalue: exactly one move lands it
  // in the mailbox.
  void Send(LogicalNode src, LogicalNode dst, int port, Update&& update);

  // Enqueues a batch of updates along one channel, equivalent to (and
  // charged exactly like) one Send per update. The contiguous enqueue makes
  // the whole batch eligible for single-dispatch delivery.
  void SendBatch(LogicalNode src, LogicalNode dst, int port,
                 std::vector<Update> updates);

  // --- Sequential drain (single-shard fast path) ----------------------------

  // Delivers the oldest pending message to the handler. Returns false when
  // the network is quiescent. Single-shard routers only.
  bool Step();

  // Delivers the oldest pending run of same-(dst, port) messages (at most
  // `max_n`) as one batch. Returns the number of messages delivered, 0 when
  // quiescent. Single-shard routers only.
  size_t StepBatch(size_t max_n = SIZE_MAX);

  // Drains the queue. Returns false if `max_messages` deliveries did not
  // reach quiescence (the experiment's work budget — the paper's "did not
  // complete within 5 minutes"); the undelivered remainder is discarded and
  // recorded in NetworkStats::{aborted_runs,dropped_messages} so the run
  // cannot silently resume from a stale queue. Single-shard routers only.
  bool RunUntilQuiescent(uint64_t max_messages);

  // --- Superstep drain (any shard count) ------------------------------------

  // If every shard's queue is drained, merges the pending mailboxes into
  // the next generation: a k-way merge over all (src, dst)-shard mailboxes
  // by the canonical send-order key, assigning global sequence numbers and
  // distributing envelopes to their destination shards. No-op mid
  // generation. Returns pending().
  size_t PrepareGeneration();

  struct StepResult {
    uint64_t delivered = 0;
    bool deadline_exceeded = false;
  };

  // Delivers up to `max_n` messages of the prepared generation, in global
  // sequence order. When `parallel` is set (and more than one shard has
  // work), shards drain on worker threads — callers must first make the
  // handlers thread-safe across *different* destination nodes (the engine's
  // concurrent BDD manager and barrier-published dead-variable epochs make
  // every provenance mode safe, relative included). Otherwise shards are
  // interleaved in sequence order on the calling thread; both schedules
  // produce bit-identical results. If `deadline` is non-null, workers poll
  // it and stop early (the run is then expected to be aborted).
  StepResult ProcessGeneration(
      uint64_t max_n, bool parallel,
      const std::chrono::steady_clock::time_point* deadline = nullptr);

  // --- Abort / purge --------------------------------------------------------

  // Discards all pending messages, recording them as dropped and the run as
  // aborted (the abort is charged to namespace `ns`, the runtime whose
  // budget ran out; dropped messages count against their own namespaces).
  // The dropped messages' wire charges are reversed: a message that never
  // reached its destination is not communication the truncated run
  // performed, so ">budget" figure cells report the traffic delivered up to
  // the cutoff instead of whatever happened to be sitting in the queue. (Do
  // not reset stats while messages are pending; uncharging assumes the
  // pending charges are still in the counters.)
  void AbortRun(int ns = 0);

  // Budget-abort isolation for co-resident views: discards (and uncharges)
  // only namespace `ns`'s pending envelopes and records the aborted run
  // against it, leaving every other namespace's traffic queued in FIFO
  // order so surviving views can keep draining on the next run.
  void AbortNamespace(int ns);

  // Discards (and uncharges) the pending messages of one port namespace,
  // leaving every other namespace's FIFO order intact. Called when a view
  // detaches from a shared router with traffic still queued (e.g. a
  // program whose ground-fact load failed after fanning out) so later
  // drains cannot dispatch into the retired namespace.
  void PurgeNamespace(int ns);

  size_t pending() const;
  uint64_t delivered() const;
  // Total messages delivered into port namespace `ns` since construction
  // (summed over shards). Monotone across drains; the engine's fair-share
  // budget arbitration reads it at drain entry and charges each view for
  // the deliveries it received since.
  uint64_t DeliveredByNs(int ns) const;

  // Merged per-namespace traffic view: the element-wise sum of every
  // shard's NetworkStats for `ns` (a single-shard router's counters pass
  // through unchanged). Returns a snapshot by value.
  NetworkStats stats(int ns = 0) const;
  // Zeroes namespace `ns`'s counters on every shard.
  void ResetStats(int ns = 0);
  // Restores namespace `ns`'s counters from a snapshot: the merged view is
  // loaded into shard 0 and every other shard's slice is zeroed, so
  // stats(ns) reproduces the checkpointed totals for any shard count.
  void LoadStats(int ns, const NetworkStats& stats);

  // Recycled kill-list storage (the arena behind Update::Kill): pops a
  // cleared buffer scavenged from delivered kill envelopes of `src`'s
  // shard, so steady-state kill routing stops allocating. Thread-safe under
  // the same ownership rule as Send (src is the node being processed).
  std::vector<bdd::Var> AcquireKillBuffer(LogicalNode src);

  // --- Fault injection ------------------------------------------------------

  // Arms lossy-link mode: shard-boundary envelopes consult the injector's
  // drop/duplication decisions at every superstep barrier. The injector is
  // owned by the caller (Substrate) and must outlive the router. Null
  // disarms. Intra-shard traffic is never lossy, so a single-shard router
  // is unaffected.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  // --- Micro-checkpoint support (session fault tolerance) -------------------
  //
  // Session's barrier-consistent micro-checkpoints serialize the router's
  // ordering context and every in-flight envelope, so a rebuilt substrate
  // resumes the EXACT delivery schedule (global sequence numbers included)
  // of the faulted run. Only coordinator-side state is covered — these are
  // called between delivery runs, never while workers are active.

  struct FlowState {
    uint64_t next_seq = 1;
    uint64_t ext_trig = 0;
    uint32_t ext_sub = 0;
    uint64_t delivered = 0;
  };
  FlowState SaveFlowState() const;
  // Restores the ordering context; the delivered total is loaded into shard
  // 0 (like LoadStats, the per-shard split is not observable).
  void RestoreFlowState(const FlowState& fs);
  void RestoreDeliveredByNs(int ns, uint64_t delivered);

  // Where an in-flight envelope was captured: the undelivered tail of a
  // generation queue (already sequence-stamped), a pre-merge mailbox (still
  // carrying its send-order key), or a lossy-mode retry buffer.
  enum class EnvelopeHome { kQueue, kMailbox, kRetry };
  // Visits every in-flight envelope: per shard the queue tail in sequence
  // order, then each mailbox in send order, then the retry buffer.
  void ForEachPendingEnvelope(
      const std::function<void(EnvelopeHome, const Envelope&)>& fn) const;
  // Re-enqueues a captured envelope into the home its endpoints imply.
  // Envelopes must be replayed in capture order (the buffers' internal
  // ordering invariants rely on it).
  void RestoreEnvelope(EnvelopeHome home, Envelope&& env);

 private:
  // The namespace owning absolute port `port`. Out-of-range ports fall into
  // the last namespace, so a single-namespace router accepts any port.
  int NamespaceOf(int port) const {
    int ns = port / kPortsPerNamespace;
    int last = num_namespaces_ - 1;
    return ns < 0 ? 0 : (ns > last ? last : ns);
  }

  void ChargeSend(LogicalNode src, LogicalNode dst, int port,
                  const Update& update);
  // Reverses ChargeSend for a message that is being dropped undelivered.
  void UnchargeSend(const Envelope& env);

  // Delivers queue[start, end) of `shard` as one batch (same (dst, port),
  // consecutive sequence numbers) and scavenges kill buffers.
  void DeliverRun(RouterShard& shard, size_t start, size_t end);
  // End (exclusive) of the maximal delivery run starting at `start`:
  // consecutive sequence numbers, same (dst, port), below `cutoff`.
  size_t RunEnd(const RouterShard& shard, size_t start, uint64_t cutoff) const;
  // Drains `shard`'s queue up to (excluding) sequence `cutoff`, checking
  // `deadline` periodically; sets / honors `stop` so sibling workers wind
  // down together once the deadline passes.
  void DrainShardQueue(int shard_id, uint64_t cutoff,
                       const std::chrono::steady_clock::time_point* deadline,
                       std::atomic<bool>* stop);
  // Interleaves all shard queues in global sequence order on the calling
  // thread (bit-identical to the parallel schedule by construction).
  void DrainInterleaved(uint64_t cutoff,
                        const std::chrono::steady_clock::time_point* deadline,
                        std::atomic<bool>* stop);
  // Moves the external send context past the last delivered sequence so
  // later external sends order after every handler send.
  void SyncExternalContext();

  int num_logical_;
  int num_physical_;
  int num_namespaces_ = 1;
  BatchHandler batch_handler_;
  std::vector<RouterShard> shards_;
  // Global delivery sequence numbers start at 1 so the pre-run external
  // context (trig 0) orders before every handler send.
  uint64_t next_seq_ = 1;
  // Generations begun (see generations_begun()).
  uint64_t generations_ = 0;
  // External send context: used when no drain is active (fact ingestion,
  // AfterQuiescent seeding). ext_trig_ tracks the last delivered sequence.
  uint64_t ext_trig_ = 0;
  uint32_t ext_sub_ = 0;
  // True while ProcessGeneration / StepBatch dispatches handlers; routes
  // Send's ordering context to the sending shard instead of the external
  // counters. Written only by the coordinating thread while workers are
  // quiescent.
  bool draining_ = false;
  // Scratch for the barrier merge (kept across generations so the merge
  // allocates nothing in steady state).
  struct MergeSource {
    std::vector<Envelope>* mailbox;
    size_t next;
    // Source is a retry buffer (lossy mode): a merged envelope counts as
    // link_retried.
    bool is_retry;
  };
  std::vector<MergeSource> merge_sources_;

  // Lossy-link mode (null = lossless). Consulted only at superstep barriers
  // on the coordinating thread.
  fault::FaultInjector* injector_ = nullptr;

  static thread_local int tls_shard_;
};

}  // namespace recnet

#endif  // RECNET_NET_ROUTER_H_
