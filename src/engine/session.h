#ifndef RECNET_ENGINE_SESSION_H_
#define RECNET_ENGINE_SESSION_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "datalog/planner.h"
#include "engine/runtime_registry.h"
#include "engine/soft_state.h"
#include "engine/substrate.h"

namespace recnet {

class View;

// Deployment of one session's shared substrate (see Substrate): the
// parameters that describe the simulated network rather than any one
// compiled program.
struct SessionOptions {
  // Initial logical topology. The node-id space is dynamic — late facts and
  // AddNode() grow it — so 0 (start empty) is valid.
  int num_nodes = 0;
  // Physical peers the logical nodes are mapped onto (paper default: 12).
  int num_physical = 12;
  // Router shards the simulated network is partitioned across (see
  // SubstrateOptions::shards): node n resides on shard n % shards, so nodes
  // added later (AddNode / late facts) land on their shard without
  // rebalancing anything. Every view's counters and scan results are
  // bit-identical for any shard count.
  int shards = 1;
  // Seeded fault plan the session's substrate runs under (default: no
  // faults). Infrastructure faults surface as kUnavailable from Apply —
  // unless `recovery` masks them; drop/dup rates arm the lossy shard-link
  // workload mode. The session keeps ONE injector across substrate rebuilds
  // so the fault clock survives recovery.
  fault::FaultPlan faults;
  // Crash-recovery policy: when enabled, Apply takes barrier-consistent
  // in-memory micro-checkpoints and masks injected infrastructure faults by
  // rebuilding the substrate from the last one (bounded retries with
  // exponential backoff). A recovered Apply finishes with Scan results and
  // traffic counters bit-identical to an uninterrupted run.
  fault::RecoveryPolicy recovery;
};

// ---------------------------------------------------------------------------
// recnet::Session — a long-lived context hosting many compiled Datalog
// programs as co-resident views over one network substrate: one Router, one
// BDD manager, one shared EDB store, one dynamic node-id space.
//
//   recnet::Session session(recnet::SessionOptions{/*num_nodes=*/12});
//   auto* reach = *session.AddProgram(R"(
//     reachable(x,y) :- link(x,y).
//     reachable(x,y) :- link(x,z), reachable(z,y).
//   )", {});
//   auto* spans = *session.AddProgram(R"(
//     span(x,y) :- link(x,y).
//     span(x,y) :- span(x,z), link(z,y).
//   )", {});
//   session.Insert("link", {0, 1});      // One fact feeds both views.
//   session.Apply();                     // One fixpoint over the substrate.
//   reach->Contains("reachable", {0, 1});
//   spans->Contains("span", {0, 1});
//
// Ingestion is session-scoped: a fact for relation R fans out to every view
// declaring R (the declarations come from each plan's Relations()), and the
// session records it so programs added later replay the shared EDB. Views
// added to one session must agree on the schema of any relation they share.
// Reads (Scan / Lookup / Contains / Explain) are per-view, through the View
// handles AddProgram returns.
//
// recnet::Engine (engine/engine.h) is a thin one-program session and keeps
// the original compile-one-program API.
// ---------------------------------------------------------------------------
class Session {
 public:
  explicit Session(const SessionOptions& options = SessionOptions());
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Compiles `source` (parse -> analyze -> plan -> instantiate) as a
  // co-resident view and returns its handle, valid for the session's
  // lifetime. Session facts already recorded for relations the new program
  // declares are replayed into it, and the program's own ground facts are
  // loaded through the session store (fanning out to older views that share
  // the relation). Errors mirror Engine::Compile, plus InvalidArgument when
  // the program declares a relation whose schema conflicts with a
  // co-resident view's declaration.
  StatusOr<View*> AddProgram(const std::string& source,
                             const EngineOptions& options);

  // Retires a co-resident view: deregisters its relation declarations,
  // destroys its runtime (freeing the port namespace back to the router),
  // and garbage-collects the BDD manager so the view's provenance nodes are
  // reclaimed. Co-resident views are untouched — their scans, counters, and
  // subsequent runs proceed as if the removed program had never shared the
  // substrate. Session facts stay in the shared EDB store (other declaring
  // views may still depend on them). NotFound when `view` is not (or no
  // longer) resident; the handle is invalid afterwards.
  Status RemoveProgram(View* view);

  // --- Checkpoint / restore -------------------------------------------------
  //
  // Whole-session persistence: Checkpoint serializes every layer of the
  // session — the BDD manager's unique table, the shared EDB store and
  // soft-state clock, each view's program + options + operator state, the
  // base-variable allocator, and per-view network counters — into a
  // versioned, checksummed snapshot file. Restore rebuilds the session in
  // one pass such that the subsequent Apply/Scan/counter trajectory is
  // bit-identical to a session that never stopped, for any shard count.

  // Precondition: the router queue must be drained (call Apply() first;
  // FailedPrecondition otherwise).
  Status Checkpoint(const std::string& path) const;

  // Restores into a freshly constructed session whose SessionOptions match
  // the snapshot's num_physical (the shard count may differ: delivery is
  // shard-count invariant). FailedPrecondition when the session already
  // holds views or facts; InvalidArgument on a deployment mismatch or
  // version skew; DataLoss on corruption.
  Status Restore(const std::string& path);

  // --- Shared fact ingestion, keyed by relation name ------------------------
  //
  // Fans out to every view declaring the relation; updates propagate on the
  // next Apply(). NotFound when no view declares it. If the fact is valid
  // for some declaring views but not all (co-resident schema drift), the
  // error is returned after the earlier views already enqueued it.

  Status Insert(const std::string& relation, const Tuple& fact);
  Status Delete(const std::string& relation, const Tuple& fact);
  Status Insert(const std::string& relation,
                std::initializer_list<double> fact);
  Status Delete(const std::string& relation,
                std::initializer_list<double> fact);

  // Soft-state ingestion (paper §3.1): the fact expires `ttl` time units
  // after the session clock; expiry is processed as an ordinary deletion in
  // every declaring view. Re-inserting a live fact renews its deadline
  // without re-propagating.
  Status InsertWithTtl(const std::string& relation, const Tuple& fact,
                       double ttl);
  // Advances the soft-state clock, enqueueing deletions for expired facts
  // (propagated on the next Apply()).
  Status AdvanceTime(double t);
  double now() const { return clock_.now(); }

  // Runs the shared dataflow to session-wide fixpoint (all views converge
  // in one drain; each view's caches are patched from its own delta log).
  // Budgets are taken from the first view's RuntimeOptions.
  // ResourceExhausted when they were exceeded before convergence.
  Status Apply();

  // --- Dynamic node-id space ------------------------------------------------

  // Registers one more logical node and returns its id. (Facts mentioning
  // unseen node ids grow the space implicitly; this is the explicit form.)
  int AddNode();
  // Grows the space to at least `num_nodes`.
  void EnsureNodes(int num_nodes);
  int num_nodes() const;

  // Crash recoveries performed over the session's lifetime (0 unless
  // SessionOptions::recovery masked an injected fault). Also overlaid onto
  // every View's RunMetrics.
  uint64_t recoveries() const { return recoveries_; }

  size_t num_views() const { return views_.size(); }
  // Resident views in AddProgram order (RemoveProgram compacts the list).
  View* view(size_t i) { return views_[i].get(); }
  const View* view(size_t i) const { return views_[i].get(); }
  const std::shared_ptr<Substrate>& substrate() const { return substrate_; }

 private:
  friend class View;

  struct RelationInfo {
    size_t arity = 0;
    bool dynamic = true;
    std::vector<View*> views;  // Declaring views, in AddProgram order.
  };

  // Tags a fact with its relation name (clock keys and the fact index must
  // not collide across relations). Integral doubles are keyed as integers.
  static Tuple TaggedFact(const std::string& relation, const Tuple& fact);

  // Fan-out without touching the soft-state clock (Insert/Delete wrap these
  // with clock maintenance; expiry calls them directly).
  Status IngestInsert(const std::string& relation, const Tuple& fact);
  Status IngestDelete(const std::string& relation, const Tuple& fact);

  // Coordinated fixpoint: arms every view's cache-delta log, drains the
  // substrate once through `initiator`'s runtime (its budgets apply), then
  // patches every view's caches.
  Status ApplyFrom(QueryRuntime* initiator);

  // AddProgram body; Restore re-adds saved programs with load_facts=false
  // (neither session-fact replay nor ground-fact loading — the restored
  // operator state already contains their effects, and loading would
  // allocate base variables the snapshot's allocator image owns).
  StatusOr<View*> AddProgramImpl(const std::string& source,
                                 const EngineOptions& options,
                                 bool load_facts);

  // --- Fault recovery -------------------------------------------------------

  // A fresh substrate for this session's deployment (constructor and
  // recovery rebuilds), sharing the session's fault injector.
  std::shared_ptr<Substrate> MakeSubstrate() const;
  // (Re-)installs the micro-checkpoint barrier hook on the current
  // substrate, per SessionOptions::recovery.checkpoint_interval.
  void ArmBarrierHook();
  // Serializes the substrate-level session state — view operator states,
  // BDD node table, base-variable allocator, per-view network counters,
  // router ordering context, and every in-flight envelope — into the
  // in-memory micro-checkpoint buffer. Called at Apply entry and (when
  // checkpoint_interval > 0) at drain barriers, where workers are joined
  // and queue contents are sequence-stamped, so restoring resumes the EXACT
  // delivery schedule of the captured run.
  void CaptureMicroCheckpoint();
  // Masks an infrastructure fault: rebuilds a fresh substrate (same
  // deployment, same shared injector), re-instantiates every view's runtime
  // on it, and restores the last micro-checkpoint into the rebuilt session.
  Status RecoverFromFault();

  // Deployment parameters, kept verbatim so a recovery rebuild constructs a
  // substrate identical to the original.
  SessionOptions options_;
  // The session's one fault injector (null when the plan enables nothing);
  // shared with every substrate this session builds so the generation clock
  // and recovery epoch survive rebuilds.
  std::shared_ptr<fault::FaultInjector> injector_;
  std::shared_ptr<Substrate> substrate_;
  std::vector<std::unique_ptr<View>> views_;
  std::unordered_map<std::string, RelationInfo> relations_;
  // Session EDB store: live facts in insertion order, for replay into views
  // added later. Deleted entries are tombstoned (empty relation name) so
  // replay order is stable; the index maps a tagged fact to its slot.
  std::vector<std::pair<std::string, Tuple>> fact_log_;
  std::unordered_map<Tuple, size_t, TupleHash> fact_index_;
  SoftStateClock clock_;
  // Last micro-checkpoint (empty = none captured yet). In-memory only:
  // recovery masks process-internal faults; durability is Checkpoint's job.
  std::vector<uint8_t> micro_ckpt_;
  uint64_t recoveries_ = 0;
};

// A compiled program co-resident in a Session: the per-view read surface
// (the same Scan/Lookup/Contains/Explain/metrics contract Engine exposes).
// Handles are owned by the session and valid for its lifetime.
class View {
 public:
  // The plan the program lowered onto.
  const datalog::PlanSpec& plan() const { return plan_; }

  // Session-wide fixpoint using this view's budgets (all co-resident views
  // share one queue, so convergence is necessarily collective).
  Status Apply();

  // All tuples of the recursive view or a declared aggregate view.
  StatusOr<std::vector<Tuple>> Scan(const std::string& view) const;

  // Membership test against the recursive view or an aggregate view.
  StatusOr<bool> Contains(const std::string& view, const Tuple& tuple) const;
  StatusOr<bool> Contains(const std::string& view,
                          std::initializer_list<double> tuple) const;

  // First tuple of `view` whose leading columns equal `key` (group-by
  // columns for aggregate views). Path-view lookups surface the runtime's
  // auxiliary columns: (src, dst, cost, vec, length).
  StatusOr<Tuple> Lookup(const std::string& view, const Tuple& key) const;
  StatusOr<Tuple> Lookup(const std::string& view,
                         std::initializer_list<double> key) const;

  // Provenance witness: one set of base facts supporting `tuple` in the
  // recursive view — the paper's "why is this tuple here" diagnostic.
  // Requires ProvMode::kAbsorption (reachable and shortest-path views).
  StatusOr<std::vector<Tuple>> Explain(const std::string& view,
                                       const Tuple& tuple) const;

  // Run bookkeeping, scoped to this view's traffic on the shared router.
  // The session-wide recovery count is overlaid so a figure cell can report
  // how many crashes the run masked.
  RunMetrics Metrics() const {
    RunMetrics m = runtime_->Metrics();
    m.recoveries = session_->recoveries_;
    return m;
  }
  void ResetMetrics() { runtime_->ResetMetrics(); }
  bool converged() const { return runtime_->converged(); }
  const RuntimeOptions& options() const { return runtime_->options(); }

 private:
  friend class Session;

  View(Session* session, datalog::PlanSpec plan,
       std::unique_ptr<QueryRuntime> runtime, std::string source,
       EngineOptions options)
      : session_(session),
        plan_(std::move(plan)),
        runtime_(std::move(runtime)),
        source_(std::move(source)),
        options_(std::move(options)) {}

  Session* session_;
  datalog::PlanSpec plan_;
  std::unique_ptr<QueryRuntime> runtime_;
  // The program text and options the view was compiled from, kept verbatim
  // so Checkpoint can re-instantiate the identical plan on Restore.
  std::string source_;
  EngineOptions options_;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_SESSION_H_
