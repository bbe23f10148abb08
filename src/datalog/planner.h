#ifndef RECNET_DATALOG_PLANNER_H_
#define RECNET_DATALOG_PLANNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/analyzer.h"
#include "datalog/ast.h"

namespace recnet {
namespace datalog {

// A derived (non-recursive) aggregate view over the recursive view, e.g.
// regionSizes(rid, count<x>) :- activeRegion(rid, x).
struct AggViewSpec {
  std::string name;
  std::vector<size_t> group_cols;  // Positions in the recursive view.
  AggKind agg = AggKind::kNone;
  size_t value_col = 0;
};

// Which distributed runtime a recognized program lowers onto. Each kind maps
// to a QueryRuntime adapter in engine/runtime_registry; a new query shape
// adds a kind here and a case to InstantiateRuntime there.
enum class PlanKind {
  // Transitive closure over a binary EDB (paper Query 1, Figure 4).
  kReachable,
  // Cost-annotated paths with aggregate selections (paper Query 2).
  kShortestPath,
  // Contiguous sensor regions grown from seeds (paper Query 3).
  kRegion,
};

const char* PlanKindName(PlanKind kind);

// One base relation a compiled plan touches. `dynamic` relations accept
// runtime Insert/Delete traffic; static ones describe the deployment (the
// region plan's seed and proximity EDBs) and are fixed at compile time.
// Sessions use these declarations to route shared-EDB ingestion: a fact for
// relation R fans out to every co-resident view declaring R, and two views
// may share R only if their declarations agree.
struct RelationDecl {
  std::string name;
  size_t arity = 0;
  bool dynamic = true;
};

// The distributed plan shape the planner recognized, lowered from the
// source program structurally (variable names are irrelevant).
//
// Recognized shapes, by recursive-view arity and rule structure:
//
//   kReachable   view(x,y) :- edb(x,y).
//                view(x,y) :- edb(x,z), view(z,y).     [left-linear]
//             or view(x,y) :- view(x,z), edb(z,y).     [right-linear]
//     Both orientations compute the transitive closure of `edb` and lower
//     onto the same Figure-4 dataflow; the join columns record which was
//     written.
//
//   kShortestPath  view(x,y,c) :- edb(x,y,c).
//                  view(x,y,c) :- edb(x,z,c1), view(z,y,c2).
//     The dialect has no arithmetic, so the head's cost column stands for
//     the runtime-computed sum c1 + c2 (the paper writes C = C1 + C2 with
//     function symbols); the runtime additionally maintains the paper's
//     hidden `vec` and `length` attributes and prunes via AggSel. Aggregate
//     views over the path view must use min<>.
//
//   kRegion      view(r,x) :- seed(r,x), trig(x).
//                view(r,y) :- view(r,x), trig(x), near(x,y).
//     `seed` and `near` describe the (static) sensor deployment; `trig` is
//     the dynamic unary trigger relation. The paper's `distance(x,y) < k`
//     guard is precomputed into the binary proximity EDB `near`.
struct PlanSpec {
  PlanKind kind = PlanKind::kReachable;
  // Recursive view name (e.g. "reachable") and the EDB it closes over
  // (e.g. "link"; the seed relation for kRegion).
  std::string view;
  std::string edb;
  size_t arity = 2;
  // Positions joined in the recursive rule. Left-linear closure joins
  // edb.1 = view.0; right-linear joins edb.0 = view.1.
  size_t edb_join_col = 1;
  size_t view_join_col = 0;
  // kShortestPath: position of the cost attribute in view and EDB.
  size_t cost_col = 2;
  // kRegion: the dynamic unary trigger EDB and the static binary
  // proximity EDB.
  std::string trigger_edb;
  std::string proximity_edb;
  std::vector<AggViewSpec> agg_views;
  // Ground EDB facts written directly in the program (e.g. `link(1,2).`),
  // loaded by the Engine as initial insertions.
  std::vector<Rule> facts;

  // The base relations this plan ingests, with their expected arity and
  // whether they are dynamic (see RelationDecl). This is the per-view
  // namespace a Session consults when fanning one shared EDB fact out to
  // every co-resident view that declares the relation.
  std::vector<RelationDecl> Relations() const;
  // True iff `name` is a deployment-defined (static) relation of this plan.
  bool IsStaticRelation(const std::string& name) const;

  std::string ToString() const;
};

// Lowers a parsed + analyzed program onto one of the distributed plans
// above. Errors:
//   * Unimplemented   — well-formed Datalog outside the recognized
//                       fragment (no recursion, mutual recursion,
//                       non-linear recursion, unsupported arity);
//   * InvalidArgument — a program whose structure is close to a supported
//                       shape but malformed (join columns that do not line
//                       up, a base rule that does not copy the EDB, rules
//                       that participate in no view), with the offending
//                       rule and its source line in the message.
StatusOr<PlanSpec> PlanProgram(const Program& program,
                               const ProgramInfo& info);

// Convenience: parse, analyze and plan in one call.
StatusOr<PlanSpec> PlanSource(const std::string& source);

}  // namespace datalog
}  // namespace recnet

#endif  // RECNET_DATALOG_PLANNER_H_
