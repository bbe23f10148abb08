#ifndef RECNET_ENGINE_ENGINE_H_
#define RECNET_ENGINE_ENGINE_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "datalog/planner.h"
#include "engine/runtime_registry.h"
#include "engine/session.h"

namespace recnet {

// ---------------------------------------------------------------------------
// recnet::Engine — the one-program facade of the system: compile a Datalog
// program straight to an executing distributed runtime.
//
//   recnet::EngineOptions options;
//   options.num_nodes = 5;
//   auto engine = recnet::Engine::Compile(R"(
//     reachable(x,y) :- link(x,y).
//     reachable(x,y) :- link(x,z), reachable(z,y).
//     fanout(x,count<y>) :- reachable(x,y).
//   )", options);
//   engine->Insert("link", {0, 1});
//   engine->Insert("link", {1, 2});
//   engine->Apply();                       // run to fixpoint
//   engine->Contains("reachable", {0, 2}); // -> true
//   engine->Scan("fanout");                // -> {(0,2), (1,1)}
//   engine->Delete("link", {1, 2});
//   engine->Apply();                       // incremental maintenance
//
// Compile runs parse -> analyze -> plan and instantiates the runtime the
// planner selected (reachable / shortest path / region) behind the uniform
// QueryRuntime interface; ground facts written in the program are loaded as
// initial insertions. Which maintenance strategy annotates tuples
// (absorption or relative provenance, or the DRed baseline) is chosen by
// EngineOptions::runtime, independent of the program.
//
// An Engine is a thin single-view recnet::Session (engine/session.h): the
// session owns the substrate (router + BDD manager + dynamic node-id
// space), the compiled program is its only view, and every Engine method
// delegates. Programs that should share one substrate — many recursive
// views over one link EDB — use Session directly.
// ---------------------------------------------------------------------------
class Engine {
 public:
  // Compiles `source` and instantiates its runtime. Errors: lexer/parser/
  // analyzer errors; Unimplemented for recursion outside the executable
  // fragment; InvalidArgument for malformed plans or missing deployment
  // parameters (a region plan with neither EngineOptions::field nor ground
  // deployment facts); fact-loading validation errors (InvalidArgument /
  // OutOfRange) for in-program ground facts the instantiated runtime
  // rejects. `deployment` configures the engine's session (physical peers,
  // router shards, fault plan); its num_nodes is taken from
  // EngineOptions::num_nodes.
  static StatusOr<std::unique_ptr<Engine>> Compile(
      const std::string& source, const EngineOptions& options,
      const SessionOptions& deployment = {});

  // The plan the program lowered onto.
  const datalog::PlanSpec& plan() const { return view_->plan(); }

  // --- Fact ingestion, keyed by relation name ------------------------------
  //
  // Updates are enqueued into the distributed dataflow and propagate on the
  // next Apply(), so a batch of inserts/deletes converges in one run. Facts
  // of graph plans may name unseen node ids: the topology grows on demand.

  Status Insert(const std::string& relation, const Tuple& fact) {
    return session_->Insert(relation, fact);
  }
  Status Delete(const std::string& relation, const Tuple& fact) {
    return session_->Delete(relation, fact);
  }

  // Convenience: numeric facts without Tuple boilerplate, converted per the
  // relation's schema (node-id columns to integers), e.g.
  // Insert("link", {0, 1}) or Insert("link", {0, 1, 2.5}).
  Status Insert(const std::string& relation,
                std::initializer_list<double> fact) {
    return session_->Insert(relation, fact);
  }
  Status Delete(const std::string& relation,
                std::initializer_list<double> fact) {
    return session_->Delete(relation, fact);
  }

  // Soft-state ingestion (paper §3.1): the fact expires `ttl` time units
  // after the engine clock; expiry is processed as an ordinary deletion.
  // Re-inserting a live fact renews its deadline without re-propagating.
  Status InsertWithTtl(const std::string& relation, const Tuple& fact,
                       double ttl) {
    return session_->InsertWithTtl(relation, fact, ttl);
  }
  // Advances the soft-state clock, enqueueing deletions for expired facts
  // (propagated on the next Apply()).
  Status AdvanceTime(double t) { return session_->AdvanceTime(t); }
  double now() const { return session_->now(); }

  // Runs the distributed dataflow to fixpoint. ResourceExhausted when the
  // message or time budget was exceeded before convergence.
  Status Apply() { return view_->Apply(); }

  // --- Uniform view access --------------------------------------------------

  // All tuples of the recursive view or a declared aggregate view.
  StatusOr<std::vector<Tuple>> Scan(const std::string& view) const {
    return view_->Scan(view);
  }

  // Membership test against the recursive view or an aggregate view.
  StatusOr<bool> Contains(const std::string& view, const Tuple& tuple) const {
    return view_->Contains(view, tuple);
  }
  StatusOr<bool> Contains(const std::string& view,
                          std::initializer_list<double> tuple) const {
    return view_->Contains(view, tuple);
  }

  // First tuple of `view` whose leading columns equal `key` (group-by
  // columns for aggregate views). Path-view lookups surface the runtime's
  // auxiliary columns: (src, dst, cost, vec, length).
  StatusOr<Tuple> Lookup(const std::string& view, const Tuple& key) const {
    return view_->Lookup(view, key);
  }
  StatusOr<Tuple> Lookup(const std::string& view,
                         std::initializer_list<double> key) const {
    return view_->Lookup(view, key);
  }

  // Provenance witness: one set of base facts supporting `tuple` in the
  // recursive view — the paper's "why is this tuple here" diagnostic.
  // Requires ProvMode::kAbsorption.
  StatusOr<std::vector<Tuple>> Explain(const std::string& view,
                                       const Tuple& tuple) const {
    return view_->Explain(view, tuple);
  }

  // --- Run bookkeeping ------------------------------------------------------

  RunMetrics Metrics() const { return view_->Metrics(); }
  void ResetMetrics() { view_->ResetMetrics(); }
  bool converged() const { return view_->converged(); }
  const RuntimeOptions& options() const { return view_->options(); }

  // The underlying single-view session (e.g. to grow the topology
  // explicitly with AddNode()).
  Session& session() { return *session_; }

 private:
  Engine(std::unique_ptr<Session> session, View* view)
      : session_(std::move(session)), view_(view) {}

  std::unique_ptr<Session> session_;
  View* view_;  // Owned by session_.
};

}  // namespace recnet

#endif  // RECNET_ENGINE_ENGINE_H_
