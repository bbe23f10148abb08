#include "engine/runtime_registry.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "engine/reachable_runtime.h"
#include "engine/region_runtime.h"
#include "engine/session.h"

namespace recnet {
namespace {

using datalog::AggViewSpec;
using datalog::PlanKind;
using datalog::PlanSpec;

Status CheckArity(const std::string& relation, const Tuple& fact,
                  size_t expected) {
  if (fact.size() != expected) {
    return Status::InvalidArgument(
        "relation '" + relation + "' has arity " + std::to_string(expected) +
        ", got tuple " + fact.ToString());
  }
  return Status::OK();
}

// Validates that fact column `i` is a node id in [0, limit).
Status CheckNode(const std::string& relation, const Tuple& fact, size_t i,
                 int limit) {
  if (!fact.at(i).is_int()) {
    return Status::InvalidArgument("relation '" + relation + "' column " +
                                   std::to_string(i) +
                                   " must be an integer node id, got " +
                                   fact.at(i).ToString());
  }
  int64_t v = fact.IntAt(i);
  if (v < 0 || v >= limit) {
    return Status::OutOfRange("relation '" + relation + "' column " +
                              std::to_string(i) + " node id " +
                              std::to_string(v) + " outside [0, " +
                              std::to_string(limit) + ")");
  }
  return Status::OK();
}

// Cap on the dynamic node-id space. The runtimes keep dense per-node
// operator state, so a topology is bounded by memory, not by int range; a
// fact naming an id beyond this is a typo or an attack, not a deployment.
constexpr int64_t kMaxNodeId = (int64_t{1} << 20) - 1;  // ~1M nodes.

// Graph plans have a dynamic node-id space: a fact column naming an unseen
// (non-negative, bounded) node id grows the session topology (and with it
// every graph-shaped view on the substrate) instead of erroring. Negative,
// non-integral, or absurd ids stay typed errors.
Status GrowNodeSpace(RuntimeBase& rt, const std::string& relation,
                     const Tuple& fact, size_t i, bool grow = true) {
  if (!fact.at(i).is_int()) {
    return Status::InvalidArgument("relation '" + relation + "' column " +
                                   std::to_string(i) +
                                   " must be an integer node id, got " +
                                   fact.at(i).ToString());
  }
  int64_t v = fact.IntAt(i);
  if (v < 0 || v > kMaxNodeId) {
    return Status::OutOfRange("relation '" + relation + "' column " +
                              std::to_string(i) + " node id " +
                              std::to_string(v) + " outside [0, " +
                              std::to_string(kMaxNodeId) +
                              "] (node state is dense per id)");
  }
  if (grow && v >= rt.num_logical()) {
    rt.substrate().EnsureNodes(static_cast<int>(v) + 1);
  }
  return Status::OK();
}

Status UnknownRelation(const std::string& relation, const std::string& known) {
  return Status::NotFound("unknown base relation '" + relation +
                          "' (this plan ingests '" + known + "')");
}

// Validates an incoming fact of the graph plans' link relation `edb` with
// `arity` columns. Inserts grow the node-id space for unseen endpoint ids
// (the dynamic-topology path); deletes only validate — a fact on an unknown
// node cannot exist, so nothing should grow for it.
Status CheckLinkFact(RuntimeBase& rt, const std::string& edb,
                     const std::string& relation, const Tuple& fact,
                     size_t arity, bool grow) {
  if (relation != edb) return UnknownRelation(relation, edb);
  RECNET_RETURN_IF_ERROR(CheckArity(relation, fact, arity));
  RECNET_RETURN_IF_ERROR(GrowNodeSpace(rt, relation, fact, 0, grow));
  return GrowNodeSpace(rt, relation, fact, 1, grow);
}

// Key/tuple comparison for lookups: numeric values compare by magnitude
// (the convenience ingestion converts integral literals to int64 while
// runtime columns may hold doubles), everything else structurally.
bool ValuesEqualNumeric(const Value& a, const Value& b) {
  if ((a.is_int() || a.is_double()) && (b.is_int() || b.is_double())) {
    double da = a.is_int() ? static_cast<double>(a.AsInt()) : a.AsDouble();
    double db = b.is_int() ? static_cast<double>(b.AsInt()) : b.AsDouble();
    return da == db;
  }
  return a == b;
}

// The hashed form of a lookup key / row prefix: integers widen to double so
// that hash-index probes agree with ValuesEqualNumeric (int 2 and double
// 2.0 must land in the same bucket and compare equal).
Tuple NormalizedPrefix(const Tuple& t, size_t len) {
  Tuple::Values vals;
  vals.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    const Value& v = t.at(i);
    if (v.is_int()) {
      vals.push_back(Value(static_cast<double>(v.AsInt())));
    } else {
      vals.push_back(v);
    }
  }
  return Tuple(std::move(vals));
}

Status RunToFixpoint(RuntimeBase* rt) {
  if (!rt->Run()) {
    // A faulted run is transient and resumable (queues intact), not a
    // budget exhaustion: Unavailable routes it into Session's recovery
    // loop instead of the terminal budget-abort path.
    if (!rt->last_fault().empty()) {
      return Status::Unavailable("injected fault: " + rt->last_fault());
    }
    return Status::ResourceExhausted(
        "message budget exceeded before fixpoint");
  }
  return Status::OK();
}

const AggViewSpec* FindAggView(const PlanSpec& plan, const std::string& name) {
  for (const AggViewSpec& agg : plan.agg_views) {
    if (agg.name == name) return &agg;
  }
  return nullptr;
}

// Scan dispatch shared by the adapters: the recursive view by name, else a
// declared aggregate view evaluated over it. Aggregate views read the
// recursive view through the adapter's *cached* Scan, so they re-derive
// from the incrementally patched rows instead of sweeping the runtime.
template <typename ScanFn>
StatusOr<std::vector<Tuple>> ScanByName(const QueryRuntime& rt,
                                        const PlanSpec& plan,
                                        const std::string& view,
                                        ScanFn&& scan_view) {
  if (view == plan.view) return scan_view();
  if (const AggViewSpec* agg = FindAggView(plan, view)) {
    StatusOr<std::vector<Tuple>> rows = rt.Scan(plan.view);
    if (!rows.ok()) return rows.status();
    return EvalAggView(*agg, rows.value());
  }
  return Status::NotFound("unknown view '" + view + "' (plan defines '" +
                          plan.view + "' and " +
                          std::to_string(plan.agg_views.size()) +
                          " aggregate view(s))");
}

// --- Reachable (paper Query 1) ---------------------------------------------

class ReachableAdapter : public QueryRuntime {
 public:
  ReachableAdapter(const PlanSpec& plan, const EngineOptions& options,
                   int num_nodes, Session& session)
      : plan_(plan), rt_(session.substrate(), num_nodes, options.runtime) {}

  Status InsertFact(const std::string& relation, const Tuple& fact) override {
    RECNET_RETURN_IF_ERROR(
        CheckLinkFact(rt_, plan_.edb, relation, fact, 2, /*grow=*/true));
    rt_.InsertLink(static_cast<LogicalNode>(fact.IntAt(0)),
                   static_cast<LogicalNode>(fact.IntAt(1)));
    return Status::OK();
  }

  Status DeleteFact(const std::string& relation, const Tuple& fact,
                    std::vector<Tuple>* deleted) override {
    RECNET_RETURN_IF_ERROR(
        CheckLinkFact(rt_, plan_.edb, relation, fact, 2, /*grow=*/false));
    for (Tuple& link : rt_.DeleteLinks(fact)) {
      deleted->push_back(std::move(link));
    }
    return Status::OK();
  }

  RuntimeBase& native_runtime() override { return rt_; }
  std::string IncrementalView() const override { return plan_.view; }
  bool DrainViewDeltas(std::vector<Tuple>* removed,
                       std::vector<Tuple>* added) override {
    // The runtime's reachable(src, dst) fixpoint tuples are the view rows.
    CompressDeltaLog(rt_.TakeViewDeltaLog(), removed, added);
    return true;
  }

  StatusOr<std::vector<Tuple>> ScanView(const std::string& view) const override {
    return ScanByName(*this, plan_, view,
                      [this]() -> StatusOr<std::vector<Tuple>> {
      std::vector<Tuple> out;
      for (int src = 0; src < rt_.num_logical(); ++src) {
        for (LogicalNode dst : rt_.ReachableFrom(src)) {
          out.push_back(Tuple::OfInts({src, dst}));
        }
      }
      return out;
    });
  }

  StatusOr<std::vector<Tuple>> Explain(const Tuple& view_tuple) const override {
    RECNET_RETURN_IF_ERROR(CheckArity(plan_.view, view_tuple, 2));
    RECNET_RETURN_IF_ERROR(
        CheckNode(plan_.view, view_tuple, 0, rt_.num_logical()));
    RECNET_RETURN_IF_ERROR(
        CheckNode(plan_.view, view_tuple, 1, rt_.num_logical()));
    return Witness(plan_.view, view_tuple,
                   rt_.ViewProvenance(
                       static_cast<LogicalNode>(view_tuple.IntAt(0)),
                       static_cast<LogicalNode>(view_tuple.IntAt(1))));
  }

 private:
  PlanSpec plan_;
  ReachableRuntime rt_;
};

// --- Shortest path (paper Query 2) -----------------------------------------

class ShortestPathAdapter : public QueryRuntime {
 public:
  ShortestPathAdapter(const PlanSpec& plan, const EngineOptions& options,
                      int num_nodes, Session& session)
      : plan_(plan),
        rt_(session.substrate(), num_nodes, options.runtime, options.aggsel) {}

  Status InsertFact(const std::string& relation, const Tuple& fact) override {
    RECNET_RETURN_IF_ERROR(
        CheckLinkFact(rt_, plan_.edb, relation, fact, 3, /*grow=*/true));
    RECNET_RETURN_IF_ERROR(CheckCost(relation, fact));
    rt_.InsertLink(static_cast<LogicalNode>(fact.IntAt(0)),
                   static_cast<LogicalNode>(fact.IntAt(1)), CostOf(fact));
    return Status::OK();
  }

  Status DeleteFact(const std::string& relation, const Tuple& fact,
                    std::vector<Tuple>* deleted) override {
    // A full fact deletes that link; the endpoints alone delete every link
    // between them, whatever its cost.
    RECNET_RETURN_IF_ERROR(CheckLinkFact(rt_, plan_.edb, relation, fact,
                                         fact.size() == 2 ? 2 : 3,
                                         /*grow=*/false));
    Tuple key = fact;
    if (fact.size() == 3) {
      RECNET_RETURN_IF_ERROR(CheckCost(relation, fact));
      // Stored links carry a double cost; an integral literal names the
      // same link.
      key = Tuple({fact.at(0), fact.at(1), Value(CostOf(fact))});
    }
    for (Tuple& link : rt_.DeleteLinks(key)) {
      deleted->push_back(std::move(link));
    }
    return Status::OK();
  }

  RuntimeBase& native_runtime() override { return rt_; }
  std::string IncrementalView() const override { return plan_.view; }
  bool DrainViewDeltas(std::vector<Tuple>* removed,
                       std::vector<Tuple>* added) override {
    // The view rows are the min-cost projection of the runtime's path
    // tuples: a fixpoint delta for path(src, dst, ...) means the (src, dst)
    // row may have changed. Recompute each affected pair and diff it
    // against the cached row.
    std::vector<std::pair<Tuple, bool>> log = rt_.TakeViewDeltaLog();
    if (log.empty()) return true;
    const std::vector<Tuple>* rows = CachedRows(plan_.view);
    if (rows == nullptr) return false;
    // Distinct affected destinations, grouped per source so each source's
    // partition is swept once (MinCosts) no matter how many of its pairs a
    // delta touched.
    FlatTable<Tuple, bool, TupleHash> seen;
    seen.reserve(log.size());
    FlatTable<LogicalNode, std::vector<LogicalNode>> by_src;
    for (const auto& [path, was_added] : log) {
      (void)was_added;
      auto [it, fresh] =
          seen.try_emplace(Tuple::OfInts({path.IntAt(0), path.IntAt(1)}));
      if (fresh) {
        by_src[static_cast<LogicalNode>(path.IntAt(0))].push_back(
            static_cast<LogicalNode>(path.IntAt(1)));
      }
    }
    for (const auto& [src, dsts] : by_src) {
      std::vector<std::optional<double>> costs = rt_.MinCosts(src, dsts);
      for (size_t i = 0; i < dsts.size(); ++i) {
        LogicalNode dst = dsts[i];
        Tuple pair = Tuple::OfInts({src, dst});
        // Rows are sorted by (src, dst, cost); binary-search the pair.
        auto it = std::lower_bound(
            rows->begin(), rows->end(), pair,
            [](const Tuple& row, const Tuple& key) {
              if (row.IntAt(0) != key.IntAt(0)) {
                return row.IntAt(0) < key.IntAt(0);
              }
              return row.IntAt(1) < key.IntAt(1);
            });
        const Tuple* old_row = nullptr;
        if (it != rows->end() && it->IntAt(0) == src && it->IntAt(1) == dst) {
          old_row = &*it;
        }
        std::optional<Tuple> new_row;
        if (costs[i].has_value()) {
          new_row = Tuple({Value(static_cast<int64_t>(src)),
                           Value(static_cast<int64_t>(dst)),
                           Value(*costs[i])});
        }
        if (old_row != nullptr && new_row.has_value() &&
            *old_row == *new_row) {
          continue;
        }
        if (old_row != nullptr) removed->push_back(*old_row);
        if (new_row.has_value()) added->push_back(*new_row);
      }
    }
    return true;
  }

  StatusOr<std::vector<Tuple>> ScanView(const std::string& view) const override {
    return ScanByName(*this, plan_, view,
                      [this]() -> StatusOr<std::vector<Tuple>> {
      // The materialized path view is pruned by aggregate selection; its
      // stable projection is the min-cost tuple per (src, dst). One sweep
      // of each source's partition yields all of its rows.
      std::vector<LogicalNode> dsts(static_cast<size_t>(rt_.num_logical()));
      std::iota(dsts.begin(), dsts.end(), 0);
      std::vector<Tuple> out;
      for (int src = 0; src < rt_.num_logical(); ++src) {
        std::vector<std::optional<double>> costs = rt_.MinCosts(src, dsts);
        for (LogicalNode dst : dsts) {
          const std::optional<double>& cost = costs[static_cast<size_t>(dst)];
          if (!cost.has_value()) continue;
          out.push_back(Tuple({Value(static_cast<int64_t>(src)),
                               Value(static_cast<int64_t>(dst)),
                               Value(*cost)}));
        }
      }
      return out;
    });
  }

  StatusOr<Tuple> Lookup(const std::string& view,
                         const Tuple& key) const override {
    // Lookups into the path view surface the runtime's auxiliary columns:
    // (src, dst, cost, vec, length) — the paper's full Query-2 tuple.
    if (view == plan_.view) {
      RECNET_RETURN_IF_ERROR(CheckEndpoints(plan_.edb, key,
                                            key.size() == 2 ? 2 : 3));
      LogicalNode src = static_cast<LogicalNode>(key.IntAt(0));
      LogicalNode dst = static_cast<LogicalNode>(key.IntAt(1));
      std::optional<double> cost = rt_.MinCost(src, dst);
      std::optional<std::string> vec = rt_.CheapestPathVec(src, dst);
      std::optional<int64_t> hops = rt_.MinHops(src, dst);
      if (!cost || !vec || !hops) {
        return Status::NotFound("no path " + key.ToString());
      }
      // A three-column key also constrains the cost, so membership tests
      // cannot succeed with a wrong cost value.
      if (key.size() == 3 && !ValuesEqualNumeric(key.at(2), Value(*cost))) {
        return Status::NotFound("min-cost path " + key.ToString() +
                                " has cost " + std::to_string(*cost));
      }
      return Tuple({Value(static_cast<int64_t>(src)),
                    Value(static_cast<int64_t>(dst)), Value(*cost),
                    Value(*vec), Value(*hops)});
    }
    return QueryRuntime::Lookup(view, key);
  }

  StatusOr<std::vector<Tuple>> Explain(const Tuple& view_tuple) const override {
    // Witnesses explain the min-cost projection Lookup surfaces; the key is
    // (src, dst) or (src, dst, cost), like a Lookup key.
    RECNET_RETURN_IF_ERROR(CheckEndpoints(plan_.view, view_tuple,
                                          view_tuple.size() == 2 ? 2 : 3));
    LogicalNode src = static_cast<LogicalNode>(view_tuple.IntAt(0));
    LogicalNode dst = static_cast<LogicalNode>(view_tuple.IntAt(1));
    const Prov* pv = rt_.ViewProvenance(src, dst);
    if (pv != nullptr && view_tuple.size() == 3) {
      std::optional<double> cost = rt_.MinCost(src, dst);
      if (!cost.has_value() ||
          !ValuesEqualNumeric(view_tuple.at(2), Value(*cost))) {
        return Status::NotFound("min-cost path " + view_tuple.ToString() +
                                " is not in view '" + plan_.view + "'");
      }
    }
    return Witness(plan_.view, view_tuple, pv);
  }

 private:
  Status CheckCost(const std::string& relation, const Tuple& fact) const {
    const Value& cost = fact.at(plan_.cost_col);
    if (!cost.is_int() && !cost.is_double()) {
      return Status::InvalidArgument("relation '" + relation +
                                     "' cost column must be numeric, got " +
                                     cost.ToString());
    }
    return Status::OK();
  }

  double CostOf(const Tuple& fact) const {
    const Value& cost = fact.at(plan_.cost_col);
    return cost.is_int() ? static_cast<double>(cost.AsInt()) : cost.AsDouble();
  }

  // Read path: endpoints must name existing nodes.
  Status CheckEndpoints(const std::string& relation, const Tuple& fact,
                        size_t arity) const {
    if (relation != plan_.edb && relation != plan_.view) {
      return UnknownRelation(relation, plan_.edb);
    }
    RECNET_RETURN_IF_ERROR(CheckArity(relation, fact, arity));
    RECNET_RETURN_IF_ERROR(CheckNode(relation, fact, 0, rt_.num_logical()));
    return CheckNode(relation, fact, 1, rt_.num_logical());
  }

  PlanSpec plan_;
  ShortestPathRuntime rt_;
};

// --- Region (paper Query 3) ------------------------------------------------

class RegionAdapter : public QueryRuntime {
 public:
  RegionAdapter(const PlanSpec& plan, const SensorField& field,
                const EngineOptions& options, Session& session)
      : plan_(plan), rt_(session.substrate(), field, options.runtime) {}

  Status InsertFact(const std::string& relation, const Tuple& fact) override {
    RECNET_RETURN_IF_ERROR(CheckTrigger(relation, fact));
    rt_.Trigger(static_cast<int>(fact.IntAt(0)));
    return Status::OK();
  }

  Status DeleteFact(const std::string& relation, const Tuple& fact,
                    std::vector<Tuple>* deleted) override {
    RECNET_RETURN_IF_ERROR(CheckTrigger(relation, fact));
    if (rt_.Untrigger(static_cast<int>(fact.IntAt(0)))) {
      deleted->push_back(fact);
    }
    return Status::OK();
  }

  RuntimeBase& native_runtime() override { return rt_; }
  std::string IncrementalView() const override { return plan_.view; }
  bool DrainViewDeltas(std::vector<Tuple>* removed,
                       std::vector<Tuple>* added) override {
    // The runtime's activeRegion(region, sensor) fixpoint tuples are the
    // view rows.
    CompressDeltaLog(rt_.TakeViewDeltaLog(), removed, added);
    return true;
  }

  StatusOr<std::vector<Tuple>> ScanView(const std::string& view) const override {
    return ScanByName(*this, plan_, view,
                      [this]() -> StatusOr<std::vector<Tuple>> {
      std::vector<Tuple> out;
      for (int r = 0; r < rt_.num_regions(); ++r) {
        for (int member : rt_.RegionMembers(r)) {
          out.push_back(Tuple::OfInts({r, member}));
        }
      }
      return out;
    });
  }

  StatusOr<std::vector<Tuple>> Explain(const Tuple& view_tuple) const override {
    // Witnesses for activeRegion(region, sensor): the set of isTriggered
    // facts whose conjunction keeps the sensor in the region (the seed's
    // trigger plus a contiguous triggered chain to it). Completes the trio
    // with the reachable and shortest-path adapters.
    RECNET_RETURN_IF_ERROR(CheckArity(plan_.view, view_tuple, 2));
    if (!view_tuple.at(0).is_int() || view_tuple.IntAt(0) < 0 ||
        view_tuple.IntAt(0) >= rt_.num_regions()) {
      return Status::OutOfRange("region id " + view_tuple.at(0).ToString() +
                                " outside [0, " +
                                std::to_string(rt_.num_regions()) + ")");
    }
    RECNET_RETURN_IF_ERROR(
        CheckNode(plan_.view, view_tuple, 1, rt_.num_logical()));
    return Witness(plan_.view, view_tuple,
                   rt_.ViewProvenance(static_cast<int>(view_tuple.IntAt(0)),
                                      static_cast<int>(view_tuple.IntAt(1))));
  }

 private:
  Status CheckTrigger(const std::string& relation, const Tuple& fact) const {
    if (relation == plan_.edb || relation == plan_.proximity_edb) {
      return Status::InvalidArgument(
          "relation '" + relation +
          "' is defined by the sensor-field deployment "
          "(EngineOptions::field); only '" +
          plan_.trigger_edb + "' facts are dynamic");
    }
    if (relation != plan_.trigger_edb) {
      return UnknownRelation(relation, plan_.trigger_edb);
    }
    RECNET_RETURN_IF_ERROR(CheckArity(relation, fact, 1));
    return CheckNode(relation, fact, 0, rt_.num_logical());
  }

  PlanSpec plan_;
  RegionRuntime rt_;
};

// --- Factories --------------------------------------------------------------

// The node span of a graph-shaped view: at least EngineOptions::num_nodes,
// and never smaller than the session's current topology (graph views track
// the shared node-id space, so all of them grow in lockstep).
StatusOr<int> GraphViewNodes(const PlanSpec& plan, const EngineOptions& options,
                             Session& session) {
  if (options.num_nodes < 0) {
    return Status::InvalidArgument(
        "EngineOptions::num_nodes must be non-negative for the " +
        std::string(PlanKindName(plan.kind)) +
        " plan (the node-id space grows on demand; 0 starts empty)");
  }
  return std::max(options.num_nodes, session.substrate()->num_logical());
}

StatusOr<std::unique_ptr<QueryRuntime>> MakeReachable(
    const PlanSpec& plan, const EngineOptions& options, Session& session) {
  StatusOr<int> num_nodes = GraphViewNodes(plan, options, session);
  if (!num_nodes.ok()) return num_nodes.status();
  return std::unique_ptr<QueryRuntime>(
      new ReachableAdapter(plan, options, num_nodes.value(), session));
}

StatusOr<std::unique_ptr<QueryRuntime>> MakeShortestPath(
    const PlanSpec& plan, const EngineOptions& options, Session& session) {
  StatusOr<int> num_nodes = GraphViewNodes(plan, options, session);
  if (!num_nodes.ok()) return num_nodes.status();
  if (options.runtime.prov != ProvMode::kAbsorption) {
    // The runtime CHECK-fails otherwise (the paper's Figure 14 evaluates
    // aggregate selection under the main scheme only); surface a typed
    // error at the facade instead.
    return Status::Unimplemented(
        "the shortest-path runtime runs under absorption provenance only");
  }
  return std::unique_ptr<QueryRuntime>(
      new ShortestPathAdapter(plan, options, num_nodes.value(), session));
}

// Derives the sensor deployment from the program's ground facts:
// seed(region, sensor) facts anchor the regions and near(x, y) facts are
// the precomputed proximity EDB (write both directions for symmetric
// contiguity). Positions are not needed at runtime — proximity is already
// explicit — so they are left at the origin.
StatusOr<SensorField> DeriveFieldFromFacts(const PlanSpec& plan) {
  auto int_arg = [](const datalog::Rule& fact, size_t i) -> StatusOr<int> {
    const datalog::Term& term = fact.head.args[i];
    if (term.kind == datalog::Term::Kind::kString ||
        term.number != static_cast<double>(static_cast<int>(term.number)) ||
        term.number < 0) {
      return Status::InvalidArgument(
          "deployment fact " + fact.ToString() + " (line " +
          std::to_string(fact.line) + "): argument " + std::to_string(i) +
          " must be a non-negative integer");
    }
    return static_cast<int>(term.number);
  };

  std::map<int, int> seed_of_region;
  std::vector<std::pair<int, int>> nears;
  int max_sensor = -1;
  for (const datalog::Rule& fact : plan.facts) {
    const std::string& rel = fact.head.predicate;
    bool is_seed = rel == plan.edb;
    bool is_near = rel == plan.proximity_edb;
    if (!is_seed && !is_near) continue;
    if (fact.head.args.size() != 2) {
      return Status::InvalidArgument(
          "deployment fact " + fact.ToString() + " (line " +
          std::to_string(fact.line) + "): '" + rel + "' has arity 2");
    }
    StatusOr<int> a = int_arg(fact, 0);
    if (!a.ok()) return a.status();
    StatusOr<int> b = int_arg(fact, 1);
    if (!b.ok()) return b.status();
    if (is_seed) {
      auto [it, fresh] = seed_of_region.emplace(a.value(), b.value());
      if (!fresh && it->second != b.value()) {
        return Status::InvalidArgument(
            "deployment fact " + fact.ToString() + " (line " +
            std::to_string(fact.line) + "): region " +
            std::to_string(a.value()) + " already has seed sensor " +
            std::to_string(it->second));
      }
      max_sensor = std::max(max_sensor, b.value());
    } else {
      nears.emplace_back(a.value(), b.value());
      max_sensor = std::max({max_sensor, a.value(), b.value()});
    }
  }
  if (seed_of_region.empty()) {
    return Status::InvalidArgument("no ground " + plan.edb +
                                   "(region, sensor) facts to derive the "
                                   "region deployment from");
  }
  // Regions are dense ids 0..R-1 (the runtime owns one partition slot per
  // region id).
  int num_regions = static_cast<int>(seed_of_region.size());
  if (seed_of_region.rbegin()->first != num_regions - 1 ||
      seed_of_region.begin()->first != 0) {
    return Status::InvalidArgument(
        "ground " + plan.edb + " facts must cover contiguous region ids 0.." +
        std::to_string(num_regions - 1));
  }

  SensorField field;
  field.num_sensors = max_sensor + 1;
  field.positions.assign(static_cast<size_t>(field.num_sensors), {0.0, 0.0});
  field.seed_sensors.resize(static_cast<size_t>(num_regions));
  for (const auto& [region, sensor] : seed_of_region) {
    field.seed_sensors[static_cast<size_t>(region)] = sensor;
  }
  field.neighbors.resize(static_cast<size_t>(field.num_sensors));
  for (const auto& [x, y] : nears) {
    if (x == y) continue;
    auto& nbrs = field.neighbors[static_cast<size_t>(x)];
    if (std::find(nbrs.begin(), nbrs.end(), y) == nbrs.end()) {
      nbrs.push_back(y);
    }
  }
  return field;
}

StatusOr<std::unique_ptr<QueryRuntime>> MakeRegion(
    const PlanSpec& plan, const EngineOptions& options, Session& session) {
  bool has_deployment_facts = false;
  for (const datalog::Rule& fact : plan.facts) {
    if (fact.head.predicate == plan.edb ||
        fact.head.predicate == plan.proximity_edb) {
      has_deployment_facts = true;
      break;
    }
  }
  SensorField field;
  if (options.field.has_value()) {
    if (options.field->num_sensors <= 0) {
      return Status::InvalidArgument(
          "EngineOptions::field (sensor deployment) has no sensors");
    }
    if (has_deployment_facts) {
      return Status::InvalidArgument(
          "ambiguous region deployment: both EngineOptions::field and ground "
          "'" + plan.edb + "'/'" + plan.proximity_edb +
          "' facts were provided; use one");
    }
    field = *options.field;
  } else if (has_deployment_facts) {
    StatusOr<SensorField> derived = DeriveFieldFromFacts(plan);
    if (!derived.ok()) return derived.status();
    field = std::move(derived).value();
  } else {
    return Status::InvalidArgument(
        "the region plan needs a sensor deployment: set "
        "EngineOptions::field or write ground '" + plan.edb +
        "(region, sensor)' / '" + plan.proximity_edb +
        "(x, y)' facts in the program");
  }
  return std::unique_ptr<QueryRuntime>(
      new RegionAdapter(plan, field, options, session));
}

}  // namespace

// --- Caching layer (QueryRuntime public entry points) ------------------------

Status QueryRuntime::Insert(const std::string& relation, const Tuple& fact) {
  // Base mutations only enqueue into the dataflow; no view state (and thus
  // no cache) can change before Apply().
  return InsertFact(relation, fact);
}

Status QueryRuntime::Delete(const std::string& relation, const Tuple& fact,
                            std::vector<Tuple>* deleted) {
  return DeleteFact(relation, fact, deleted);
}

void QueryRuntime::PrepareApply() {
  const std::string inc = IncrementalView();
  patching_ = !inc.empty() && view_caches_.count(inc) > 0;
  // Delta logging is armed only while a cache exists to patch, so runs
  // without live readers (every benchmark) never pay for it.
  if (patching_) native_runtime().SetViewDeltaLogging(true);
}

Status QueryRuntime::ApplyUpdates() { return RunToFixpoint(&native_runtime()); }

Status QueryRuntime::FinishApply(Status run_status) {
  if (!patching_) {
    InvalidateViewCaches();
    return run_status;
  }
  patching_ = false;
  const std::string inc = IncrementalView();
  std::vector<Tuple> removed, added;
  bool drained = run_status.ok() && DrainViewDeltas(&removed, &added);
  // Disarm only after the log is drained.
  native_runtime().SetViewDeltaLogging(false);
  if (!drained) {
    // Aborted runs may have dropped part of the delta stream with the
    // queue; fall back to a rebuild rather than patch from a torn log.
    InvalidateViewCaches();
    return run_status;
  }
  if (removed.empty() && added.empty()) return run_status;  // View unchanged.
  ApplyRowDelta(&view_caches_[inc], std::move(removed), std::move(added));
  // Dependent (aggregate) caches re-derive lazily from the patched rows;
  // drop just their entries.
  for (auto it = view_caches_.begin(); it != view_caches_.end();) {
    if (it->first == inc) {
      ++it;
    } else {
      it = view_caches_.erase(it);
    }
  }
  return run_status;
}

Status QueryRuntime::Apply() {
  PrepareApply();
  return FinishApply(ApplyUpdates());
}

const std::vector<Tuple>* QueryRuntime::CachedRows(
    const std::string& view) const {
  auto it = view_caches_.find(view);
  return it == view_caches_.end() ? nullptr : &it->second.rows;
}

void QueryRuntime::CompressDeltaLog(std::vector<std::pair<Tuple, bool>> log,
                                    std::vector<Tuple>* removed,
                                    std::vector<Tuple>* added) {
  // Chronological membership events; the final event per tuple decides
  // whether it ends up present (added) or absent (removed). ApplyRowDelta
  // tolerates adds of already-present rows and removals of absent ones, so
  // no diff against the pre-run rows is needed.
  FlatTable<Tuple, bool, TupleHash> last;
  last.reserve(log.size());
  for (auto& [tuple, was_added] : log) last[tuple] = was_added;
  for (const auto& [tuple, was_added] : last) {
    (was_added ? added : removed)->push_back(tuple);
  }
}

void QueryRuntime::ApplyRowDelta(ViewCache* cache, std::vector<Tuple> removed,
                                 std::vector<Tuple> added) {
  std::sort(removed.begin(), removed.end());
  std::sort(added.begin(), added.end());
  // One merge pass keeps the rows sorted: skip removed rows, interleave the
  // additions, collapse adds of rows that are already present.
  std::vector<Tuple> next;
  next.reserve(cache->rows.size() + added.size());
  size_t ri = 0, ai = 0;
  // Added rows are copied (not moved): the index patch below still needs
  // them.
  for (Tuple& row : cache->rows) {
    while (ai < added.size() && added[ai] < row) next.push_back(added[ai++]);
    if (ai < added.size() && added[ai] == row) ++ai;  // Already present.
    while (ri < removed.size() && removed[ri] < row) ++ri;
    if (ri < removed.size() && removed[ri] == row) continue;
    next.push_back(std::move(row));
  }
  while (ai < added.size()) next.push_back(added[ai++]);
  cache->rows = std::move(next);

  // Patch the live lookup indexes. An index maps each normalized prefix to
  // its first (smallest) matching row; entries whose first match was
  // removed are recomputed in one pass over the patched rows.
  for (auto& [len, index] : cache->index) {
    FlatTable<Tuple, bool, TupleHash> repair;
    for (const Tuple& r : removed) {
      if (r.size() < len) continue;
      Tuple prefix = NormalizedPrefix(r, len);
      auto hit = index.find(prefix);
      if (hit != index.end() && hit->second == r) {
        index.erase(prefix);
        repair[std::move(prefix)] = false;
      }
    }
    for (const Tuple& a : added) {
      if (a.size() < len) continue;
      Tuple prefix = NormalizedPrefix(a, len);
      if (repair.contains(prefix)) continue;  // Repair pass decides.
      auto [hit, inserted] = index.try_emplace(prefix, a);
      if (!inserted && a < hit->second) hit->second = a;
    }
    if (!repair.empty()) {
      size_t outstanding = repair.size();
      for (const Tuple& row : cache->rows) {
        if (row.size() < len) continue;
        auto hit = repair.find(NormalizedPrefix(row, len));
        if (hit == repair.end() || hit->second) continue;
        hit->second = true;
        index[hit->first] = row;
        if (--outstanding == 0) break;
      }
    }
  }
}

StatusOr<QueryRuntime::ViewCache*> QueryRuntime::CacheFor(
    const std::string& view) const {
  auto it = view_caches_.find(view);
  if (it != view_caches_.end()) return &it->second;
  StatusOr<std::vector<Tuple>> rows = ScanView(view);
  if (!rows.ok()) return rows.status();
  ViewCache& cache = view_caches_[view];
  cache.rows = std::move(rows).value();
  // Adapters enumerate sorted; enforce the invariant incremental patching
  // relies on regardless.
  std::sort(cache.rows.begin(), cache.rows.end());
  return &cache;
}

StatusOr<std::vector<Tuple>> QueryRuntime::Scan(const std::string& view) const {
  StatusOr<ViewCache*> cache = CacheFor(view);
  if (!cache.ok()) return cache.status();
  return cache.value()->rows;
}

StatusOr<Tuple> QueryRuntime::Lookup(const std::string& view,
                                     const Tuple& key) const {
  StatusOr<ViewCache*> cache_or = CacheFor(view);
  if (!cache_or.ok()) return cache_or.status();
  ViewCache* cache = cache_or.value();
  auto idx_it = cache->index.find(key.size());
  if (idx_it == cache->index.end()) {
    // First probe with this key length: index the cached rows by normalized
    // prefix. try_emplace keeps the first row per prefix, preserving the
    // first-match-in-scan-order contract of the old linear search.
    idx_it = cache->index.emplace(key.size(),
                                  FlatTable<Tuple, Tuple, TupleHash>())
                 .first;
    FlatTable<Tuple, Tuple, TupleHash>& built = idx_it->second;
    built.reserve(cache->rows.size());
    for (const Tuple& row : cache->rows) {
      if (row.size() < key.size()) continue;
      built.try_emplace(NormalizedPrefix(row, key.size()), row);
    }
  }
  auto hit = idx_it->second.find(NormalizedPrefix(key, key.size()));
  if (hit == idx_it->second.end()) {
    return Status::NotFound("no tuple matching " + key.ToString() +
                            " in view '" + view + "'");
  }
  return hit->second;
}

StatusOr<std::vector<Tuple>> QueryRuntime::Explain(
    const Tuple& view_tuple) const {
  return Status::Unimplemented("this runtime does not expose per-tuple "
                               "provenance witnesses (tuple " +
                               view_tuple.ToString() + ")");
}

StatusOr<std::vector<Tuple>> QueryRuntime::Witness(
    const std::string& view, const Tuple& view_tuple, const Prov* pv) const {
  if (options().prov != ProvMode::kAbsorption) {
    return Status::Unimplemented(
        "provenance witnesses require ProvMode::kAbsorption");
  }
  if (pv == nullptr) {
    return Status::NotFound("tuple " + view_tuple.ToString() +
                            " is not in view '" + view + "'");
  }
  std::vector<std::pair<bdd::Var, bool>> assignment;
  const bdd::Bdd& b = pv->bdd();
  if (!b.manager()->AnyWitness(b.index(), &assignment)) {
    return Status::NotFound("no witness for " + view_tuple.ToString());
  }
  std::vector<Tuple> facts;
  for (const auto& [var, value] : assignment) {
    if (!value) continue;
    std::optional<Tuple> fact = native_runtime().BaseFactOfVar(var);
    if (fact.has_value()) facts.push_back(std::move(*fact));
  }
  return facts;
}

std::vector<Tuple> EvalAggView(const AggViewSpec& spec,
                               const std::vector<Tuple>& view_tuples) {
  struct Acc {
    int64_t count = 0;
    double sum = 0;
    bool sum_is_int = true;
    std::optional<Value> best;  // min / max.
  };
  std::map<Tuple, Acc> groups;
  for (const Tuple& row : view_tuples) {
    std::vector<Value> key;
    key.reserve(spec.group_cols.size());
    for (size_t col : spec.group_cols) key.push_back(row.at(col));
    Acc& acc = groups[Tuple(std::move(key))];
    acc.count += 1;
    const Value& v = row.at(spec.value_col);
    if (spec.agg == datalog::AggKind::kSum) {
      if (v.is_double()) {
        acc.sum_is_int = false;
        acc.sum += v.AsDouble();
      } else if (v.is_int()) {
        acc.sum += static_cast<double>(v.AsInt());
      }
    }
    if (spec.agg == datalog::AggKind::kMin || spec.agg == datalog::AggKind::kMax) {
      if (!acc.best.has_value() ||
          (spec.agg == datalog::AggKind::kMin ? v < *acc.best
                                              : *acc.best < v)) {
        acc.best = v;
      }
    }
  }
  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (const auto& [key, acc] : groups) {
    std::vector<Value> vals(key.values().begin(), key.values().end());
    switch (spec.agg) {
      case datalog::AggKind::kCount:
        vals.push_back(Value(acc.count));
        break;
      case datalog::AggKind::kSum:
        if (acc.sum_is_int) {
          vals.push_back(Value(static_cast<int64_t>(acc.sum)));
        } else {
          vals.push_back(Value(acc.sum));
        }
        break;
      case datalog::AggKind::kMin:
      case datalog::AggKind::kMax:
        vals.push_back(*acc.best);
        break;
      case datalog::AggKind::kNone:
        break;
    }
    out.push_back(Tuple(std::move(vals)));
  }
  return out;
}

StatusOr<std::unique_ptr<QueryRuntime>> InstantiateRuntime(
    const datalog::PlanSpec& plan, const EngineOptions& options,
    Session& session) {
  switch (plan.kind) {
    case PlanKind::kReachable:
      return MakeReachable(plan, options, session);
    case PlanKind::kShortestPath:
      return MakeShortestPath(plan, options, session);
    case PlanKind::kRegion:
      return MakeRegion(plan, options, session);
  }
  return Status::Unimplemented(std::string("no runtime for plan kind '") +
                               PlanKindName(plan.kind) + "'");
}

}  // namespace recnet
