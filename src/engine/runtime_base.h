#ifndef RECNET_ENGINE_RUNTIME_BASE_H_
#define RECNET_ENGINE_RUNTIME_BASE_H_

#include <atomic>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "common/flat_table.h"
#include "common/status.h"
#include "engine/metrics.h"
#include "engine/substrate.h"
#include "net/router.h"
#include "operators/fixpoint.h"
#include "operators/min_ship.h"
#include "operators/update.h"

namespace recnet {

namespace persist {
class SnapshotReader;
class SnapshotWriter;
}  // namespace persist

// Operator input ports shared by the query runtimes. These are *local*
// ports: on the wire they are offset by the runtime's port-namespace base
// (view v occupies absolute ports [v*Router::kPortsPerNamespace, ...)), so
// co-resident views never collide on one router.
inline constexpr int kPortJoinBuild = 0;  // Re-partitioned base tuples.
inline constexpr int kPortFix = 1;        // Recursive view stream.
inline constexpr int kPortKill = 2;       // Base-deletion notifications.
inline constexpr int kPortAgg = 3;        // Final aggregation deltas.

// Per-view maintenance policy of one distributed runtime. The deployment
// (physical peers, router shards, fault plan) belongs to the Substrate the
// runtime attaches to, not to the view.
struct RuntimeOptions {
  // Which view-maintenance strategy annotates tuples. kSet selects the
  // DRed baseline (over-delete + re-derive); the provenance modes delete
  // incrementally by zeroing base variables.
  ProvMode prov = ProvMode::kAbsorption;
  // MinShip policy (paper Section 5). Ignored in kSet mode (DRed ships
  // directly, like the conventional Ship operator).
  ShipMode ship = ShipMode::kLazy;
  // Eager-mode batching interval, in processed updates (the paper flushes
  // once a second; our discrete equivalent counts updates — 256 updates
  // approximates one wall-clock second of their cluster's message rate).
  size_t batch_window = 256;
  // Work budget: maximum message deliveries per Run(). Exceeding it marks
  // the run non-converged (the paper's "did not complete within 5 min").
  uint64_t message_budget = 50'000'000;
  // Wall-clock budget per Run() in seconds (0 = unlimited). The second half
  // of the paper's 5-minute cap: runs whose per-message work explodes
  // (e.g. eager propagation of huge annotations) are cut off and reported
  // as non-converged.
  double time_budget_s = 0;
};

// Common machinery of the distributed query runtimes: substrate access
// (router + BDD manager + base-variable allocation), the view-scoped port
// namespace, view-scoped deletion ("kill") routing, run/metrics bookkeeping,
// and the half of every plan that does not depend on the query's rules:
//
//   * each logical node's Fixpoint (its view partition) and MinShip (the
//     shipping edge into the recursive view);
//   * the base-fact table (live base tuple <-> base variable);
//   * the kill cascade on kPortKill (AcceptKill, fixpoint kill, the rules'
//     own kill via KillRuleState, MinShip kill, relative bookkeeping);
//   * the quiescence hook (demoted-MinShip flush, DRed's re-derivation
//     phase via SeedRederivation, relative provenance's derivability sweep);
//   * persistence of all of the above.
//
// A runtime subclass adds only its rules: the join or proximity expansion,
// aggregate selection, the aggregate views, DRed's seed set, its read API.
//
// A runtime attaches to a Substrate as one view: the only view of a private
// substrate (`std::make_shared<Substrate>(n, SubstrateOptions{})`) or one
// co-resident view of a recnet::Session. Either way it keeps its own
// kill-subscription tables, kill dedup sets, and metrics, so a view's
// observable behavior is independent of its neighbors.
//
// Deletion routing: when an update is shipped, the sender records, for each
// base variable in the update's provenance support, that the destination is
// a subscriber of that variable. When a base tuple is deleted, the kill
// follows those subscription edges (with per-node deduplication), so it
// reaches exactly the nodes whose state mentions the variable — the paper's
// observation that zeroing out p4 "only requires two message transmissions"
// while "deletions may need to be propagated to all nodes in the worst
// case" (Section 4).
class RuntimeBase {
 public:
  virtual ~RuntimeBase();

  RuntimeBase(const RuntimeBase&) = delete;
  RuntimeBase& operator=(const RuntimeBase&) = delete;

  // Drains the substrate to quiescence (fixpoint), honoring the message
  // budget. On a shared substrate this drains every co-resident view's
  // pending messages too (they share one network); each view's handlers and
  // counters stay its own. Returns false if the budget was exhausted — in
  // that case only THIS view's queued envelopes are dropped (and uncharged)
  // and only this view is marked non-converged; co-resident views keep
  // their in-flight traffic and can finish on a later Apply.
  bool Run();

  // Metrics accumulated since construction (or the last ResetMetrics),
  // scoped to this view's traffic. If a run was aborted on budget
  // exhaustion, this returns the snapshot taken at abort time — the dropped
  // queue is already uncharged and operator state is frozen as of the
  // cutoff — so a figure cell for a ">budget" run is consistent no matter
  // when the bench reads it.
  RunMetrics Metrics() const;
  // Clears traffic and timing counters, e.g. to measure the deletion phase
  // separately from initial computation.
  void ResetMetrics();

  // Tuples in the recursive view, summed over every node's partition.
  size_t ViewSize() const;

  // Reverse-maps a base variable to the live base fact it annotates (for
  // rendering provenance witnesses); nullopt for dead or foreign variables.
  std::optional<Tuple> BaseFactOfVar(bdd::Var v) const;

  // --- Persistence ----------------------------------------------------------
  //
  // Snapshot round-trip of the view's mutable state: the base implementation
  // covers the shared machinery (kill-subscription routing, kill dedup sets,
  // relative-provenance pseudo-variables, run bookkeeping, the base-fact
  // table, the pending quiescence work, and every node's Fixpoint and
  // MinShip); runtime subclasses override to append their rules' operator
  // state and MUST call the base implementation first. LoadState requires a
  // freshly constructed runtime of the same program, options, and topology —
  // it refuses (with InvalidArgument) when the recorded shape disagrees.
  virtual void SaveState(persist::SnapshotWriter& w) const;
  virtual Status LoadState(persist::SnapshotReader& r);

  // --- View-delta log (incremental scan caches) -----------------------------
  //
  // When enabled, the runtime records every recursive-view membership
  // change — tuple entered (true) / left (false) the view — in
  // chronological order. The facade's caching layer turns the log into
  // patches for its materialized scan caches. Logging defaults to off so
  // runs without live caches (all benchmarks) never pay for it.
  //
  // Sharded drains keep one log per router shard (indexed by the worker's
  // Router::current_shard()), so parallel workers never contend; all events
  // for one tuple land in its owner node's shard log, preserving the
  // per-tuple chronology the caching layer's last-write-wins compression
  // needs.
  void SetViewDeltaLogging(bool enabled) {
    log_view_deltas_ = enabled;
    if (!enabled) {
      for (auto& log : view_delta_logs_) log.clear();
    }
  }
  std::vector<std::pair<Tuple, bool>> TakeViewDeltaLog() {
    if (view_delta_logs_.size() == 1) return std::move(view_delta_logs_[0]);
    std::vector<std::pair<Tuple, bool>> merged;
    size_t total = 0;
    for (const auto& log : view_delta_logs_) total += log.size();
    merged.reserve(total);
    for (auto& log : view_delta_logs_) {
      merged.insert(merged.end(), std::make_move_iterator(log.begin()),
                    std::make_move_iterator(log.end()));
      log.clear();
    }
    return merged;
  }

  Substrate& substrate() { return *sub_; }
  const std::shared_ptr<Substrate>& substrate_ptr() const { return sub_; }
  Router& router() { return sub_->router(); }
  const Router& router() const { return sub_->router(); }
  bdd::Manager* bdd_manager() { return sub_->bdd_manager(); }
  const RuntimeOptions& options() const { return opts_; }
  // Nodes this view spans (<= the substrate's logical node count when
  // co-resident with a larger view).
  int num_logical() const { return num_logical_; }
  int port_namespace() const { return ns_; }
  bool converged() const { return converged_; }
  // Non-empty when the last Run() was stopped by an injected infrastructure
  // fault (names the fault site). The run is incomplete but uncorrupted:
  // queues are intact, so recovery (or simply re-running) can finish it.
  const std::string& last_fault() const { return last_fault_; }

 protected:
  // Attaches to `substrate` as one view spanning `num_logical` of the
  // substrate's nodes (the substrate grows to at least that many) and
  // builds each node's Fixpoint and MinShip, with tables pre-sized for
  // `node_reserve` tuples. The MinShip routes a shipped tuple to the node
  // named by its column `ship_dest_col`. DRed (kSet) ships directly; the
  // provenance modes use RuntimeOptions::ship.
  RuntimeBase(std::shared_ptr<Substrate> substrate, int num_logical,
              const RuntimeOptions& options, size_t ship_dest_col,
              size_t node_reserve);

  // Delivers a contiguous run of same-(dst, port) envelopes: every envelope
  // of a run targets the same logical node and operator input, so the query
  // runtimes hoist the per-destination/per-port state lookups out of the
  // inner loop and apply the operator across the whole run. Kill runs
  // (kPortKill) never reach it: the base's kill cascade handles them.
  virtual void HandleBatch(const Envelope* envs, size_t n) = 0;

  // Called when the substrate's node-id space grows to `num_nodes`.
  // Graph-shaped runtimes override to call GrowNodes and extend their rules'
  // per-node state; deployment-bound runtimes (region) keep their fixed
  // span and ignore it.
  virtual void OnTopologyGrown(int num_nodes) { (void)num_nodes; }

  // Extends the view (kill routing, Fixpoints, MinShips, num_logical()) to
  // `num_nodes`. Returns false when the view already spans that many.
  bool GrowNodes(int num_nodes);

  // --- Rule hooks -------------------------------------------------------------

  // Called for every tuple a kill or the derivability sweep removes from a
  // node's view partition. The default records the view delta; runtimes
  // that maintain aggregates over the view also retract from them.
  virtual void OnViewRowRemoved(LogicalNode at, const Tuple& row) {
    (void)at;
    LogViewDelta(row, /*added=*/false);
  }
  // Restricts the rules' own operators (join, aggregate selection) at node
  // `at` by the freshly killed variables. Runs between the Fixpoint kill and
  // the MinShip kill.
  virtual void KillRuleState(LogicalNode at,
                             const std::vector<bdd::Var>& fresh) {
    (void)at;
    (void)fresh;
  }
  // DRed re-derivation (paper Figure 5, steps 5-8): re-fires the rules over
  // the surviving base and view tuples. Called at quiescence after
  // RequestRederivation.
  virtual void SeedRederivation() {}
  // Schedules DRed's re-derivation phase for the next quiescence.
  void RequestRederivation() { rederive_pending_ = true; }
  // Bytes held by the rules' own operators, across all nodes.
  virtual size_t RuleStateBytes() const = 0;

  // --- Per-node view operators ----------------------------------------------

  Fixpoint& fix(LogicalNode n) {
    return *view_nodes_[static_cast<size_t>(n)].fix;
  }
  const Fixpoint& fix(LogicalNode n) const {
    return *view_nodes_[static_cast<size_t>(n)].fix;
  }
  MinShip& ship(LogicalNode n) {
    return *view_nodes_[static_cast<size_t>(n)].ship;
  }

  // --- Base facts -------------------------------------------------------------
  //
  // The view's live base facts, keyed by the full fact tuple, with the base
  // variable annotating each. A fact's variable is allocated on insertion
  // (in every mode, so variable ids are mode-independent) and retired on
  // deletion; re-inserting a deleted fact allocates a fresh one.

  // Registers `fact` and returns its new variable; nullopt if it is alive.
  std::optional<bdd::Var> AddBaseFact(const Tuple& fact);
  // The variable of live fact `fact`, or nullptr.
  const bdd::Var* BaseVar(const Tuple& fact) const;
  // Erases live base facts and returns them with their variables, in
  // allocation order: the fact equal to `key`, or — with `by_prefix` —
  // every fact whose leading columns equal `key`.
  std::vector<std::pair<Tuple, bdd::Var>> TakeBaseFacts(const Tuple& key,
                                                        bool by_prefix = false);
  // Every live base fact with its variable, in allocation order.
  std::vector<std::pair<Tuple, bdd::Var>> BaseFactsInOrder() const;

  // Records one recursive-view membership change (no-op unless logging is
  // enabled). Runtimes call this at every point a tuple enters or leaves
  // their fixpoint view. Safe from parallel shard workers: each appends to
  // its own shard's log.
  void LogViewDelta(const Tuple& tuple, bool added) {
    if (log_view_deltas_) {
      view_delta_logs_[static_cast<size_t>(Router::current_shard())]
          .emplace_back(tuple, added);
    }
  }
  bool view_delta_logging() const { return log_view_deltas_; }

  // --- Namespaced transport -------------------------------------------------
  //
  // All runtime traffic goes through these wrappers, which offset the local
  // operator port by the view's namespace base so co-resident views share
  // the router without port collisions (and so the router charges the
  // message to this view's stats).

  void Send(LogicalNode src, LogicalNode dst, int port, Update&& update) {
    sub_->router().Send(src, dst, port_base_ + port, std::move(update));
  }
  void SendBatch(LogicalNode src, LogicalNode dst, int port,
                 std::vector<Update> updates) {
    sub_->router().SendBatch(src, dst, port_base_ + port, std::move(updates));
  }
  // The local operator port of a delivered envelope.
  int LocalPort(const Envelope& env) const { return env.port - port_base_; }

  // --- Base-variable lifecycle ---------------------------------------------
  //
  // Variables come from the substrate's session-wide allocator, so
  // co-resident views sharing the BDD manager never collide. The dead set
  // lives on the substrate, but each view counts only its own kills: a
  // view's annotations never mention another view's variables, so its
  // GuardIncoming fast path must not degrade because a neighbor deleted
  // something.

  bdd::Var AllocVar() { return sub_->AllocVar(); }
  void MarkDead(bdd::Var v) {
    if (sub_->MarkDead(v)) num_dead_.fetch_add(1, std::memory_order_relaxed);
  }
  bool AnyDead() const {
    return num_dead_.load(std::memory_order_relaxed) > 0;
  }

  // Restricts an incoming annotation by any base variables that died while
  // the update was in flight, so late arrivals cannot resurrect state.
  Prov GuardIncoming(const Prov& pv) const;

  Prov TrueProv() { return Prov::True(opts_.prov, sub_->bdd_manager()); }
  Prov VarProv(bdd::Var v) {
    return Prov::BaseVar(opts_.prov, sub_->bdd_manager(), v);
  }

  // --- Shipping & kill routing ---------------------------------------------

  // Records destination `to` as a subscriber of every variable in `pv`'s
  // support, then sends the insert.
  void ShipInsert(LogicalNode from, LogicalNode to, int port, Tuple tuple,
                  Prov pv);

  // Starts a kill at `origin` (the deleted base tuple's home node).
  void StartKill(LogicalNode origin, std::vector<bdd::Var> killed);

  // --- Relative provenance (derivation-edge model) --------------------------
  //
  // The relative-provenance baseline [14] records, per view tuple, its
  // *immediate* derivations: each derivation references the base facts and
  // antecedent view tuples it fired from. We encode an antecedent reference
  // as a pseudo-variable owned by that tuple; a derivation is then a small
  // set {base vars} ∪ {tuple vars}, reusing the RelSop machinery while
  // keeping annotations polynomial (one entry per rule firing).
  //
  // Deletion semantics require a reachability ("derivability") test over
  // the derivation graph — the graph-traversal cost the paper attributes to
  // relative provenance. The kill cascade handles the acyclic part; cyclic
  // self-support (A derives B derives A) is detected by the global
  // least-fixpoint check below, run at quiescence.

  // The pseudo-variable standing for view tuple `t` (allocated on demand).
  bdd::Var TupleVar(const Tuple& t);
  // The singleton annotation {TupleVar(t)} used as a derivation reference.
  Prov RefProv(const Tuple& t);

  RuntimeOptions opts_;

 private:
  friend class Substrate;

  struct ViewNode {
    std::unique_ptr<Fixpoint> fix;
    std::unique_ptr<MinShip> ship;
  };

  // Substrate entry point (delivery dispatch): kills run the shared
  // cascade, everything else the runtime's rules.
  void DeliverBatch(const Envelope* envs, size_t n);

  // Hook called at quiescence; returns true to continue draining. Flushes
  // demoted MinShips, then runs one pending phase: DRed's re-derivation, or
  // relative provenance's derivability sweep. On a shared substrate every
  // attached view is polled each round.
  bool AfterQuiescent();

  // Builds node n's Fixpoint and MinShip, sized for `reserve` tuples.
  void InitViewNode(int n, size_t reserve);

  // The kill cascade at node `at`, in a fixed order: AcceptKill, Fixpoint
  // kill (OnViewRowRemoved per removed row), KillRuleState, MinShip kill
  // (its promotions are enqueued after the forwarded kills, so FIFO order
  // delivers the kill first at every destination), relative bookkeeping.
  void HandleKill(LogicalNode at, const std::vector<bdd::Var>& killed);

  // Splits `killed` into variables this node has not yet processed, marks
  // them processed, and forwards them along subscription edges. Returns the
  // fresh set the caller should restrict its operators with.
  std::vector<bdd::Var> AcceptKill(LogicalNode at,
                                   const std::vector<bdd::Var>& killed);

  // Called when view tuple `t` (owned by `owner`) leaves the view under
  // relative provenance: kills its pseudo-variable so derivations
  // referencing it die everywhere.
  void OnTupleRemoved(LogicalNode owner, const Tuple& t);

  struct ViewEntry {
    LogicalNode owner;
    const Tuple* tuple;
    const Prov* pv;
  };
  // Least-fixpoint derivability over the derivation graph: returns the view
  // entries that are *not* derivable from live base facts (i.e. only
  // supported through cycles) and must be force-removed.
  std::vector<std::pair<LogicalNode, Tuple>> FindUnderivable(
      const std::vector<ViewEntry>& view) const;

  // Total bytes of operator state across all logical nodes.
  size_t StateSizeBytes() const;
  // Total eager→lazy absorption demotions across the view's MinShips (see
  // kEagerDemoteWidth); 0 means the view never crossed the threshold.
  uint64_t CountShipDemotions() const;

  // Drain-side budget abort: called by the shared drain's fair-share
  // arbitration the moment this view's own deliveries exhaust its message
  // budget. Purges (and uncharges) the view's queued traffic, marks it
  // non-converged, and freezes its metrics at the cutoff — exactly the
  // record a budget-aborted Run() used to produce, but scoped to this view
  // while co-resident views keep draining.
  void AbortForBudget();

  // The live metric computation behind Metrics(); bypassed once an abort
  // snapshot exists.
  RunMetrics ComputeMetrics() const;

  std::shared_ptr<Substrate> sub_;
  int ns_ = 0;         // Port namespace id on the substrate's router.
  int port_base_ = 0;  // ns_ * Router::kPortsPerNamespace.
  int num_logical_ = 0;
  size_t ship_dest_col_ = 0;
  std::vector<ViewNode> view_nodes_;
  // Live base facts and their variables.
  std::unordered_map<Tuple, bdd::Var, TupleHash> base_facts_;
  // DRed: an over-deletion happened; re-derive at quiescence.
  bool rederive_pending_ = false;
  // Relative mode: a kill happened; run the derivability traversal at
  // quiescence to collect cyclically self-supported tuples. Atomic: set by
  // parallel shard workers in HandleKill, consumed at the quiescence
  // barrier.
  std::atomic<bool> relative_check_pending_{false};
  // Variables THIS view killed (fast path for GuardIncoming; the full dead
  // set is the substrate's). Atomic: parallel shard workers kill
  // concurrently during a drain.
  std::atomic<size_t> num_dead_{0};
  // Relative mode: pseudo-variables standing for view tuples. Shard workers
  // allocate pseudo-variables concurrently mid-drain, so both tables are
  // guarded by tuple_vars_mu_. Which worker wins the find-or-alloc race is
  // schedule-dependent, but the *values* handed out come from the
  // substrate's per-shard interleaved id streams, so every observable
  // (traffic counters, scans, kill fan-out) stays deterministic.
  mutable std::mutex tuple_vars_mu_;
  FlatTable<Tuple, bdd::Var, TupleHash> tuple_vars_;
  std::unordered_map<bdd::Var, Tuple> var_tuples_;
  // Per logical node: variable -> destinations shipped annotations
  // mentioning it. View-scoped: co-resident views keep separate
  // subscription universes even though kills ride one router.
  std::vector<FlatTable<bdd::Var, std::vector<LogicalNode>>> subs_;
  // Per logical node: kills already applied.
  std::vector<std::unordered_set<bdd::Var>> kills_done_;
  double wall_seconds_ = 0;
  bool converged_ = true;
  // Fault site of the last faulted Run() (empty = no fault). Transient run
  // bookkeeping, not persisted state.
  std::string last_fault_;
  // Metrics frozen at the moment a run was cut off (budget exhaustion);
  // cleared by ResetMetrics.
  std::optional<RunMetrics> abort_metrics_;
  bool log_view_deltas_ = false;
  // One membership log per router shard (size >= 1; see LogViewDelta).
  std::vector<std::vector<std::pair<Tuple, bool>>> view_delta_logs_;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_RUNTIME_BASE_H_
