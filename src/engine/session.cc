#include "engine/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>

#include "datalog/analyzer.h"
#include "datalog/parser.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "provenance/prov.h"

namespace recnet {
namespace {

// Numeric literals with an exact integral value become int64 (node ids);
// everything else stays double (costs).
Value NumberToValue(double d) {
  if (std::floor(d) == d && std::abs(d) < 9.0e15) {
    return Value(static_cast<int64_t>(d));
  }
  return Value(d);
}

Tuple TupleOfDoubles(std::initializer_list<double> vals) {
  std::vector<Value> out;
  out.reserve(vals.size());
  for (double d : vals) out.push_back(NumberToValue(d));
  return Tuple(std::move(out));
}

// A ground fact's arguments as a Tuple (the planner already rejected
// non-constant arguments).
Tuple FactTuple(const datalog::Rule& fact) {
  std::vector<Value> out;
  out.reserve(fact.head.args.size());
  for (const datalog::Term& term : fact.head.args) {
    if (term.kind == datalog::Term::Kind::kString) {
      out.push_back(Value(term.text));
    } else {
      out.push_back(NumberToValue(term.number));
    }
  }
  return Tuple(std::move(out));
}

// --- EngineOptions wire codec ------------------------------------------------
//
// A program record in a snapshot is (source text, EngineOptions): enough to
// re-run the full compile pipeline on restore, so the plan, operator
// wiring, and port layout are rebuilt by the same code paths an
// uninterrupted session used.

void EncodeSensorField(persist::Writer* w, const SensorField& f) {
  w->I32(f.num_sensors);
  w->F64(f.k);
  w->U32(static_cast<uint32_t>(f.positions.size()));
  for (const auto& [x, y] : f.positions) {
    w->F64(x);
    w->F64(y);
  }
  w->U32(static_cast<uint32_t>(f.seed_sensors.size()));
  for (int s : f.seed_sensors) w->I32(s);
  w->U32(static_cast<uint32_t>(f.neighbors.size()));
  for (const std::vector<int>& adj : f.neighbors) {
    w->U32(static_cast<uint32_t>(adj.size()));
    for (int n : adj) w->I32(n);
  }
}

void EncodeEngineOptions(persist::Writer* w, const EngineOptions& o) {
  w->U8(static_cast<uint8_t>(o.runtime.prov));
  w->U8(static_cast<uint8_t>(o.runtime.ship));
  w->U64(o.runtime.batch_window);
  w->U64(o.runtime.message_budget);
  w->F64(o.runtime.time_budget_s);
  w->I32(o.num_nodes);
  w->U8(static_cast<uint8_t>(o.aggsel));
  w->Bool(o.field.has_value());
  if (o.field.has_value()) EncodeSensorField(w, *o.field);
}

Status DecodeSensorField(persist::Reader* r, SensorField* f) {
  f->num_sensors = r->I32();
  f->k = r->F64();
  uint64_t npos = r->U32();
  if (!r->CanRead(npos * 16)) return r->Check("sensor positions");
  f->positions.reserve(npos);
  for (uint64_t i = 0; i < npos; ++i) {
    double x = r->F64();
    double y = r->F64();
    f->positions.emplace_back(x, y);
  }
  uint64_t nseeds = r->U32();
  if (!r->CanRead(nseeds * 4)) return r->Check("sensor seeds");
  f->seed_sensors.reserve(nseeds);
  for (uint64_t i = 0; i < nseeds; ++i) f->seed_sensors.push_back(r->I32());
  uint64_t nadj = r->U32();
  if (!r->CanRead(nadj * 4)) return r->Check("sensor neighbor lists");
  f->neighbors.resize(nadj);
  for (uint64_t i = 0; i < nadj; ++i) {
    uint64_t n = r->U32();
    if (!r->CanRead(n * 4)) break;
    f->neighbors[i].reserve(n);
    for (uint64_t j = 0; j < n; ++j) f->neighbors[i].push_back(r->I32());
  }
  return r->Check("sensor field");
}

Status DecodeEngineOptions(persist::Reader* r, EngineOptions* o) {
  uint8_t prov = r->U8();
  uint8_t ship = r->U8();
  if (r->ok() &&
      (prov > static_cast<uint8_t>(ProvMode::kRelative) ||
       ship > static_cast<uint8_t>(ShipMode::kLazy))) {
    return Status::DataLoss("snapshot program options hold an unknown mode");
  }
  o->runtime.prov = static_cast<ProvMode>(prov);
  o->runtime.ship = static_cast<ShipMode>(ship);
  o->runtime.batch_window = r->U64();
  o->runtime.message_budget = r->U64();
  o->runtime.time_budget_s = r->F64();
  o->num_nodes = r->I32();
  uint8_t aggsel = r->U8();
  if (r->ok() && aggsel > static_cast<uint8_t>(AggSelPolicy::kNone)) {
    return Status::DataLoss(
        "snapshot program options hold an unknown aggsel policy");
  }
  o->aggsel = static_cast<AggSelPolicy>(aggsel);
  if (r->Bool()) {
    o->field.emplace();
    RECNET_RETURN_IF_ERROR(DecodeSensorField(r, &*o->field));
  }
  return r->Check("program options");
}

}  // namespace

Session::Session(const SessionOptions& options)
    : options_(options),
      injector_(options.faults.enabled()
                    ? std::make_shared<fault::FaultInjector>(options.faults)
                    : nullptr),
      substrate_(MakeSubstrate()) {
  ArmBarrierHook();
}

std::shared_ptr<Substrate> Session::MakeSubstrate() const {
  // A negative initial size is clamped: AddProgram surfaces the typed
  // InvalidArgument (the substrate itself must exist to report it).
  return std::make_shared<Substrate>(
      options_.num_nodes > 0 ? options_.num_nodes : 0,
      SubstrateOptions{options_.num_physical, options_.shards, injector_,
                       options_.faults});
}

Session::~Session() = default;

StatusOr<View*> Session::AddProgram(const std::string& source,
                                    const EngineOptions& options) {
  return AddProgramImpl(source, options, /*load_facts=*/true);
}

StatusOr<View*> Session::AddProgramImpl(const std::string& source,
                                        const EngineOptions& options,
                                        bool load_facts) {
  StatusOr<datalog::Program> program = datalog::Parse(source);
  if (!program.ok()) return program.status();
  StatusOr<datalog::ProgramInfo> info = datalog::Analyze(program.value());
  if (!info.ok()) return info.status();
  StatusOr<datalog::PlanSpec> plan =
      datalog::PlanProgram(program.value(), info.value());
  if (!plan.ok()) return plan.status();

  // Shared-EDB schema agreement: a relation two views share must mean the
  // same thing in both, or one fan-out fact would be valid for one view and
  // an error for the other.
  for (const datalog::RelationDecl& decl : plan.value().Relations()) {
    auto it = relations_.find(decl.name);
    if (it != relations_.end() && (it->second.arity != decl.arity ||
                                   it->second.dynamic != decl.dynamic)) {
      return Status::InvalidArgument(
          "relation '" + decl.name + "' (arity " + std::to_string(decl.arity) +
          (decl.dynamic ? ", dynamic" : ", deployment-defined") +
          ") conflicts with a co-resident view's declaration (arity " +
          std::to_string(it->second.arity) +
          (it->second.dynamic ? ", dynamic" : ", deployment-defined") + ")");
    }
  }

  StatusOr<std::unique_ptr<QueryRuntime>> runtime =
      InstantiateRuntime(plan.value(), options, *this);
  if (!runtime.ok()) return runtime.status();

  std::unique_ptr<View> view(new View(this, std::move(plan).value(),
                                      std::move(runtime).value(), source,
                                      options));
  View* handle = view.get();

  const std::vector<datalog::RelationDecl> decls = handle->plan_.Relations();

  // Cross-view EDB sharing, part 1: the session's live facts flow into the
  // late-added view so it starts from the shared base state. (Skipped on
  // restore: the deserialized operator state already embeds every fact's
  // effects, base variables included.)
  if (load_facts) {
    for (const auto& [relation, fact] : fact_log_) {
      if (relation.empty()) continue;  // Tombstone (deleted fact).
      bool declared = false;
      for (const datalog::RelationDecl& decl : decls) {
        if (decl.dynamic && decl.name == relation) {
          declared = true;
          break;
        }
      }
      if (!declared) continue;
      Status st = handle->runtime_->Insert(relation, fact);
      if (!st.ok()) {
        return Status(st.code(), "replaying session fact " + relation +
                                     fact.ToString() + ": " + st.message());
      }
    }
  }

  views_.push_back(std::move(view));
  for (const datalog::RelationDecl& decl : decls) {
    RelationInfo& info_entry = relations_[decl.name];
    info_entry.arity = decl.arity;
    info_entry.dynamic = decl.dynamic;
    info_entry.views.push_back(handle);
  }

  // Cross-view EDB sharing, part 2: the program's own ground facts load
  // through the session store, fanning out to every co-resident view that
  // declares the relation. Deployment facts (the region plan's seed and
  // proximity EDBs) were consumed by the runtime factory and stay static.
  if (!load_facts) return handle;
  for (const datalog::Rule& fact : handle->plan_.facts) {
    if (handle->plan_.IsStaticRelation(fact.head.predicate)) continue;
    Status st = Insert(fact.head.predicate, FactTuple(fact));
    if (!st.ok()) {
      // The error must be rendered before the rollback below destroys the
      // view (and with it the plan's fact storage `fact` points into).
      Status out(st.code(), "loading fact " + fact.ToString() + " (line " +
                                std::to_string(fact.line) +
                                "): " + st.message());
      // Keep the session consistent: retract the failed view's
      // registration (facts already fanned to older views stay — shared
      // enqueues cannot be unsent).
      for (const datalog::RelationDecl& decl : decls) {
        auto rel_it = relations_.find(decl.name);
        if (rel_it == relations_.end()) continue;
        auto& declaring = rel_it->second.views;
        declaring.erase(
            std::remove(declaring.begin(), declaring.end(), handle),
            declaring.end());
        if (declaring.empty()) relations_.erase(rel_it);
      }
      views_.pop_back();
      return out;
    }
  }
  return handle;
}

Status Session::RemoveProgram(View* view) {
  auto it = std::find_if(
      views_.begin(), views_.end(),
      [view](const std::unique_ptr<View>& v) { return v.get() == view; });
  if (it == views_.end()) {
    return Status::NotFound("view is not resident in this session");
  }
  // Deregister the view's relation declarations; facts it contributed stay
  // in the shared EDB store (co-resident views may declare them, and a
  // future AddProgram may replay them).
  for (const datalog::RelationDecl& decl : view->plan_.Relations()) {
    auto rel_it = relations_.find(decl.name);
    if (rel_it == relations_.end()) continue;
    auto& declaring = rel_it->second.views;
    declaring.erase(std::remove(declaring.begin(), declaring.end(), view),
                    declaring.end());
    if (declaring.empty()) relations_.erase(rel_it);
  }
  // Destroying the runtime detaches it from the substrate: the router frees
  // the port namespace (purging any queued messages addressed to it) and
  // the runtime releases its provenance handles. The BDD sweep then
  // reclaims every node only this view's annotations kept alive, returning
  // the manager to its pre-AddProgram footprint.
  views_.erase(it);
  substrate_->bdd_manager()->GarbageCollect();
  return Status::OK();
}

Tuple Session::TaggedFact(const std::string& relation, const Tuple& fact) {
  std::vector<Value> key;
  key.reserve(fact.size() + 1);
  key.push_back(Value(relation));
  // Integral doubles key as integers (the literal rule), so a fact names
  // one slot whichever numeric type the caller or a view spelled it in.
  for (const Value& v : fact.values()) {
    key.push_back(v.is_double() ? NumberToValue(v.AsDouble()) : v);
  }
  return Tuple(std::move(key));
}

Status Session::IngestInsert(const std::string& relation, const Tuple& fact) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("unknown base relation '" + relation +
                            "' (no co-resident view declares it)");
  }
  for (View* view : it->second.views) {
    RECNET_RETURN_IF_ERROR(view->runtime_->Insert(relation, fact));
  }
  // Record for replay into late-added programs (dynamic relations only; a
  // static relation never reaches this point — its view rejected it
  // above). A fact deleted earlier reclaims its tombstoned slot, so the
  // log is bounded by the number of distinct facts, not by churn.
  Tuple tag = TaggedFact(relation, fact);
  auto [slot, fresh] = fact_index_.try_emplace(std::move(tag),
                                               fact_log_.size());
  if (fresh) {
    fact_log_.emplace_back(relation, fact);
  } else if (fact_log_[slot->second].first.empty()) {
    fact_log_[slot->second].first = relation;
  }
  return Status::OK();
}

Status Session::IngestDelete(const std::string& relation, const Tuple& fact) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("unknown base relation '" + relation +
                            "' (no co-resident view declares it)");
  }
  // The views report the live facts they deleted: `fact` itself, or every
  // fact a shorter key names (link(src, dst) deletes each
  // link(src, dst, cost)). Exactly those leave the replay log.
  std::vector<Tuple> deleted;
  for (View* view : it->second.views) {
    RECNET_RETURN_IF_ERROR(view->runtime_->Delete(relation, fact, &deleted));
  }
  for (const Tuple& gone : deleted) {
    Tuple tag = TaggedFact(relation, gone);
    auto idx = fact_index_.find(tag);
    if (idx != fact_index_.end()) {
      // Tombstone the slot but keep the index entry: a re-insert reclaims it
      // instead of growing the log.
      fact_log_[idx->second].first.clear();
    }
    clock_.Remove(tag);
  }
  return Status::OK();
}

Status Session::Insert(const std::string& relation, const Tuple& fact) {
  // A plain insert makes the fact permanent: drop any soft-state deadline
  // a prior InsertWithTtl left behind so it cannot expire later.
  clock_.Remove(TaggedFact(relation, fact));
  return IngestInsert(relation, fact);
}

Status Session::Delete(const std::string& relation, const Tuple& fact) {
  clock_.Remove(TaggedFact(relation, fact));
  return IngestDelete(relation, fact);
}

Status Session::Insert(const std::string& relation,
                       std::initializer_list<double> fact) {
  return Insert(relation, TupleOfDoubles(fact));
}

Status Session::Delete(const std::string& relation,
                       std::initializer_list<double> fact) {
  return Delete(relation, TupleOfDoubles(fact));
}

Status Session::InsertWithTtl(const std::string& relation, const Tuple& fact,
                              double ttl) {
  Tuple key = TaggedFact(relation, fact);
  if (clock_.Contains(key)) {
    // Soft-state renewal: extend the deadline; the live fact and its base
    // variables stay put, so nothing propagates.
    clock_.Insert(key, ttl);
    return Status::OK();
  }
  RECNET_RETURN_IF_ERROR(IngestInsert(relation, fact));
  clock_.Insert(key, ttl);
  return Status::OK();
}

Status Session::AdvanceTime(double t) {
  if (t < clock_.now()) {
    return Status::InvalidArgument("clock cannot run backwards (now=" +
                                   std::to_string(clock_.now()) + ")");
  }
  std::vector<Tuple> expirations = clock_.AdvanceTo(t);
  // Each expiry is an ordinary deletion: it only enqueues, and the next
  // Apply patches every view's scan caches from its delta log. The clock
  // has already dropped every deadline, so process the whole expiration
  // batch even if one deletion fails — stopping early would silently make
  // the remaining expired facts permanent.
  Status first_error = Status::OK();
  for (const Tuple& expired : expirations) {
    std::vector<Value> fact(expired.values().begin() + 1,
                            expired.values().end());
    Status st = IngestDelete(expired.StringAt(0), Tuple(std::move(fact)));
    // A removed program may leave TTL deadlines for relations no view
    // declares anymore; their expiry is a no-op, not an error.
    if (st.code() == StatusCode::kNotFound) continue;
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status Session::ApplyFrom(QueryRuntime* initiator) {
  if (views_.empty()) return Status::OK();
  // The initiator is tracked by index: a recovery mid-loop replaces every
  // view's runtime, so a QueryRuntime pointer would dangle across attempts.
  size_t initiator_idx = 0;
  for (size_t i = 0; initiator != nullptr && i < views_.size(); ++i) {
    if (views_[i]->runtime_.get() == initiator) {
      initiator_idx = i;
      break;
    }
  }
  const fault::RecoveryPolicy& recovery = options_.recovery;
  // Entry micro-checkpoint: the rollback point for a fault during this
  // Apply. (Barrier-interval checkpoints, if configured, refresh it
  // mid-drain so less work re-executes.)
  if (recovery.enabled) CaptureMicroCheckpoint();
  int attempts = 0;
  for (;;) {
    // One drain converges every co-resident view (they share the FIFO), so
    // every view's cache maintenance must bracket it: arm all delta logs
    // before, patch all caches after.
    for (const auto& view : views_) view->runtime_->PrepareApply();
    Status run_status = views_[initiator_idx]->runtime_->ApplyUpdates();
    if (recovery.enabled && run_status.code() == StatusCode::kUnavailable &&
        attempts < recovery.max_recoveries) {
      // An injected infrastructure fault killed the drain. The faulted
      // runtimes are replaced wholesale by the rebuild, so their armed
      // delta logs die with them — no FinishApply bracket to close.
      if (recovery.backoff_initial_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            recovery.backoff_initial_s *
            std::pow(recovery.backoff_factor, attempts)));
      }
      RECNET_RETURN_IF_ERROR(RecoverFromFault());
      ++attempts;
      continue;
    }
    for (const auto& view : views_) view->runtime_->FinishApply(run_status);
    return run_status;
  }
}

Status Session::Apply() { return ApplyFrom(nullptr); }

int Session::AddNode() {
  int id = substrate_->num_logical();
  substrate_->EnsureNodes(id + 1);
  return id;
}

void Session::EnsureNodes(int num_nodes) { substrate_->EnsureNodes(num_nodes); }

int Session::num_nodes() const { return substrate_->num_logical(); }

// --- Fault recovery ----------------------------------------------------------
//
// Micro-checkpoint payload (in-memory, no file container):
//
//   [view namespaces]    u32 count + each view's port namespace at capture
//   [topology]           logical node count
//   [dead vars]          the base-variable allocator image
//   [flow state]         router ordering context + delivered totals
//   [bdd node table]     live unique table for the states and provs below
//   [view states]        per view: RuntimeBase + runtime-specific state
//   [view stats]         per view: NetworkStats totals
//   [envelopes]          every in-flight envelope with its home, ordering
//                        key, and payload
//
// Captured only with workers joined (Apply entry / drain barriers), where
// queue contents are sequence-stamped: restoring the queues, seqs, and
// operator states resumes the EXACT delivery schedule of the captured run,
// which is what makes a recovered run bit-identical to an uninterrupted one.

void Session::ArmBarrierHook() {
  if (!options_.recovery.enabled ||
      options_.recovery.checkpoint_interval == 0) {
    return;
  }
  substrate_->set_barrier_hook([this] { CaptureMicroCheckpoint(); },
                               options_.recovery.checkpoint_interval);
}

void Session::CaptureMicroCheckpoint() {
  const Router& router = substrate_->router();
  persist::Writer body;
  persist::BddEncoder enc(substrate_->bdd_manager());

  body.U32(static_cast<uint32_t>(views_.size()));
  for (const auto& view : views_) {
    body.I32(view->runtime_->native_runtime().port_namespace());
  }
  body.I32(router.num_logical());
  const std::vector<char>& dead = substrate_->dead_vars();
  body.U64(dead.size());
  body.Bytes(dead.data(), dead.size());
  Router::FlowState fs = router.SaveFlowState();
  body.U64(fs.next_seq);
  body.U64(fs.ext_trig);
  body.U32(fs.ext_sub);
  body.U64(fs.delivered);
  for (const auto& view : views_) {
    body.U64(router.DeliveredByNs(
        view->runtime_->native_runtime().port_namespace()));
  }

  // View states, stats, and envelopes encode into a side buffer first:
  // encoding registers the live BDD roots, and the node table those ids
  // index must precede them in the payload.
  persist::Writer side;
  persist::SnapshotWriter ssw(&side, &enc);
  for (const auto& view : views_) {
    view->runtime_->native_runtime().SaveState(ssw);
  }
  for (const auto& view : views_) {
    ssw.PutStats(
        router.stats(view->runtime_->native_runtime().port_namespace()));
  }
  side.U64(router.pending());
  router.ForEachPendingEnvelope([&](Router::EnvelopeHome home,
                                    const Envelope& env) {
    side.U8(static_cast<uint8_t>(home));
    side.I32(env.src);
    side.I32(env.dst);
    side.I32(env.port);
    side.U64(env.key_trig);
    side.U32(env.key_sub);
    side.U32(env.attempts);
    side.U8(static_cast<uint8_t>(env.update.type));
    switch (env.update.type) {
      case UpdateType::kInsert:
        ssw.PutTuple(env.update.tuple);
        ssw.PutProv(env.update.pv);
        break;
      case UpdateType::kDelete:
        ssw.PutTuple(env.update.tuple);
        break;
      case UpdateType::kKill:
        side.U32(static_cast<uint32_t>(env.update.killed.size()));
        for (bdd::Var v : env.update.killed) side.U32(v);
        break;
    }
  });

  enc.WriteNodeTable(&body);
  body.Append(side);
  micro_ckpt_ = body.bytes();
}

Status Session::RecoverFromFault() {
  if (micro_ckpt_.empty()) {
    return Status::Unavailable(
        "fault fired before any micro-checkpoint was captured");
  }
  // Fresh substrate, identical deployment, SAME injector: the fault clock
  // (generation counter, one-shot kill) survives the rebuild.
  substrate_ = MakeSubstrate();
  // Re-instantiate every view's runtime on the new substrate, in residency
  // order so view i claims namespace i. Each replacement destroys the old
  // runtime (detaching it from the dead substrate, which is freed with its
  // last view).
  std::vector<int> new_ns(views_.size());
  for (size_t i = 0; i < views_.size(); ++i) {
    View* view = views_[i].get();
    StatusOr<std::unique_ptr<QueryRuntime>> rebuilt =
        InstantiateRuntime(view->plan_, view->options_, *this);
    if (!rebuilt.ok()) {
      return Status(rebuilt.status().code(),
                    "recovery could not re-instantiate view '" +
                        view->plan_.view + "': " + rebuilt.status().message());
    }
    view->runtime_ = std::move(rebuilt).value();
    new_ns[i] = view->runtime_->native_runtime().port_namespace();
  }

  persist::Reader raw(micro_ckpt_);
  uint32_t nviews = raw.U32();
  if (raw.ok() && nviews != views_.size()) {
    return Status::Internal(
        "micro-checkpoint view count disagrees with the session");
  }
  // Old namespace -> rebuilt namespace, for the port remap below (the old
  // ids can be sparse when programs were removed earlier in the session).
  std::unordered_map<int, int> ns_remap;
  for (uint32_t i = 0; i < nviews && raw.ok(); ++i) {
    ns_remap.emplace(raw.I32(), new_ns[i]);
  }
  int num_logical = raw.I32();
  uint64_t ndead = raw.Count(1);
  std::vector<char> dead(ndead);
  for (uint64_t i = 0; i < ndead && raw.ok(); ++i) {
    dead[i] = static_cast<char>(raw.U8());
  }
  Router::FlowState fs;
  fs.next_seq = raw.U64();
  fs.ext_trig = raw.U64();
  fs.ext_sub = raw.U32();
  fs.delivered = raw.U64();
  std::vector<uint64_t> delivered_ns(nviews, 0);
  for (uint32_t i = 0; i < nviews && raw.ok(); ++i) {
    delivered_ns[i] = raw.U64();
  }
  RECNET_RETURN_IF_ERROR(raw.Check("micro-checkpoint header"));

  EnsureNodes(num_logical);
  substrate_->RestoreDeadVars(std::move(dead));

  // The decoder must outlive every LoadState: it holds the protecting
  // references on restored BDD nodes until the view states own them.
  persist::BddDecoder dec(substrate_->bdd_manager());
  persist::SnapshotReader sr(&raw, &dec);
  RECNET_RETURN_IF_ERROR(dec.ReadNodeTable(&raw));
  for (const auto& view : views_) {
    RECNET_RETURN_IF_ERROR(view->runtime_->native_runtime().LoadState(sr));
  }
  Router& router = substrate_->router();
  for (uint32_t i = 0; i < nviews; ++i) {
    NetworkStats stats = sr.GetStats();
    router.LoadStats(new_ns[i], stats);
    router.RestoreDeliveredByNs(new_ns[i], delivered_ns[i]);
  }
  router.RestoreFlowState(fs);

  // In-flight envelopes, replayed in capture order. Their wire charges are
  // inside the restored stats, so re-enqueueing must not (and does not)
  // re-charge.
  uint64_t nenv = raw.Count(30);
  for (uint64_t i = 0; i < nenv && raw.ok(); ++i) {
    uint8_t home = raw.U8();
    if (home > static_cast<uint8_t>(Router::EnvelopeHome::kRetry)) {
      return Status::Internal("micro-checkpoint envelope has a bad home");
    }
    Envelope env;
    env.src = raw.I32();
    env.dst = raw.I32();
    int port = raw.I32();
    env.key_trig = raw.U64();
    env.key_sub = raw.U32();
    env.attempts = raw.U32();
    uint8_t type = raw.U8();
    switch (type) {
      case static_cast<uint8_t>(UpdateType::kInsert): {
        Tuple t = sr.GetTuple();
        Prov pv = sr.GetProv();
        env.update = Update::Insert(std::move(t), std::move(pv));
        break;
      }
      case static_cast<uint8_t>(UpdateType::kDelete):
        env.update = Update::Delete(sr.GetTuple());
        break;
      case static_cast<uint8_t>(UpdateType::kKill): {
        uint32_t n = raw.U32();
        if (!raw.CanRead(static_cast<size_t>(n) * 4)) break;
        std::vector<bdd::Var> killed;
        killed.reserve(n);
        for (uint32_t j = 0; j < n; ++j) killed.push_back(raw.U32());
        env.update = Update::Kill(std::move(killed));
        break;
      }
      default:
        return Status::Internal("micro-checkpoint envelope has a bad type");
    }
    auto remapped = ns_remap.find(port / Router::kPortsPerNamespace);
    if (remapped == ns_remap.end()) {
      return Status::Internal(
          "micro-checkpoint envelope addresses an unknown namespace");
    }
    env.port = remapped->second * Router::kPortsPerNamespace +
               port % Router::kPortsPerNamespace;
    if (!raw.ok()) break;
    router.RestoreEnvelope(static_cast<Router::EnvelopeHome>(home),
                           std::move(env));
  }
  RECNET_RETURN_IF_ERROR(sr.Check("micro-checkpoint"));

  ArmBarrierHook();
  // Re-randomize rate-based faults for the re-executed generations so a
  // recovered run is not doomed to re-die at the same point.
  if (injector_ != nullptr) injector_->BumpEpoch();
  ++recoveries_;
  return Status::OK();
}

// --- Checkpoint / restore ----------------------------------------------------
//
// Payload layout (after the self-describing summary, see
// persist/snapshot.h):
//
//   [summary]            inspector-readable: deployment, relations, views
//   [clock]              now + (deadline, tagged fact) in expiry order
//   [fact log]           per slot: live flag + tagged fact (tombstones too —
//                        slot indices are stable and fact_index_ keys on
//                        them, so replay order survives the round trip)
//   [programs]           per view: source text + EngineOptions
//   [dead vars]          the substrate's base-variable allocator image
//   [bdd node table]     the manager's live unique table, topologically
//                        ordered with remapped ids
//   [view states]        per view: RuntimeBase + runtime-specific state
//                        (encoded against the node table above)
//   [view stats]         per view: NetworkStats totals
//
// The view states are serialized into a side buffer first: encoding them
// discovers which BDD roots are live, and the node table those ids index
// must precede them in the payload so Restore can decode front to back.
// The file is written from three buffers — [summary .. dead vars],
// [node table], [view states, view stats] — without joining them.

Status Session::Checkpoint(const std::string& path) const {
  const Router& router = substrate_->router();
  if (router.pending() > 0) {
    return Status::FailedPrecondition(
        "cannot checkpoint with " + std::to_string(router.pending()) +
        " undelivered message(s); call Apply() to reach fixpoint first");
  }
  persist::SnapshotSummary summary;
  summary.num_nodes = router.num_logical();
  summary.num_physical = router.num_physical();
  summary.shards = router.num_shards();
  {
    // Tombstoned slots carry an empty relation name, so they count nowhere.
    std::unordered_map<std::string, uint64_t> live_facts;
    for (const auto& [relation, fact] : fact_log_) {
      if (!relation.empty()) ++live_facts[relation];
    }
    std::vector<std::string> names;
    names.reserve(relations_.size());
    for (const auto& [name, info] : relations_) names.push_back(name);
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      const RelationInfo& info = relations_.at(name);
      persist::SnapshotRelationInfo rel;
      rel.name = name;
      rel.arity = info.arity;
      rel.dynamic = info.dynamic;
      auto live = live_facts.find(name);
      if (live != live_facts.end()) rel.live_facts = live->second;
      summary.relations.push_back(std::move(rel));
    }
  }
  for (const auto& view : views_) {
    persist::SnapshotViewInfo vi;
    vi.name = view->plan_.view;
    vi.prov_mode = ProvModeName(view->runtime_->options().prov);
    vi.messages =
        router.stats(view->runtime_->native_runtime().port_namespace())
            .messages;
    summary.views.push_back(std::move(vi));
  }

  persist::Writer body;
  size_t bdd_patch = persist::WriteSummary(&body, summary);
  persist::BddEncoder enc(substrate_->bdd_manager());
  persist::SnapshotWriter sw(&body, &enc);

  // Clock.
  body.F64(clock_.now());
  body.U64(clock_.deadlines().size());
  for (const auto& [deadline, tagged] : clock_.deadlines()) {
    body.F64(deadline);
    sw.PutTuple(tagged);
  }

  // Fact log. Tombstoned slots lost their relation name, but every slot
  // (live or not) has exactly one index entry carrying the tagged fact.
  std::vector<const Tuple*> tag_of(fact_log_.size(), nullptr);
  for (const auto& [tag, slot] : fact_index_) tag_of[slot] = &tag;
  body.U64(fact_log_.size());
  for (size_t i = 0; i < fact_log_.size(); ++i) {
    RECNET_CHECK(tag_of[i] != nullptr);
    body.Bool(!fact_log_[i].first.empty());
    sw.PutTuple(*tag_of[i]);
  }

  // Programs.
  body.U32(static_cast<uint32_t>(views_.size()));
  for (const auto& view : views_) {
    body.Str(view->source_);
    EncodeEngineOptions(&body, view->options_);
  }

  // Base-variable allocator.
  const std::vector<char>& dead = substrate_->dead_vars();
  body.U64(dead.size());
  body.Bytes(dead.data(), dead.size());

  // View states and per-view network counters into their own piece
  // (encoding the states registers BDD roots with `enc`), then the node
  // table into another. The file gets the three pieces in payload order.
  persist::Writer views_buf;
  persist::SnapshotWriter views_sw(&views_buf, &enc);
  for (const auto& view : views_) {
    view->runtime_->native_runtime().SaveState(views_sw);
  }
  for (const auto& view : views_) {
    views_sw.PutStats(
        router.stats(view->runtime_->native_runtime().port_namespace()));
  }
  body.PatchU32(bdd_patch, static_cast<uint32_t>(enc.num_nodes()));
  persist::Writer table;
  enc.WriteNodeTable(&table);
  const std::vector<const persist::Writer*> pieces = {&body, &table,
                                                      &views_buf};

  // Injected snapshot tear: the write stops short inside the `.tmp` and the
  // rename never happens, so `path` is untouched — a prior checkpoint there
  // survives intact and the caller sees a typed Unavailable.
  fault::FaultInjector* injector = substrate_->fault_injector();
  if (injector != nullptr && injector->ShouldTearSnapshot()) {
    const size_t total = persist::kSnapshotHeaderBytes + body.bytes().size() +
                         table.bytes().size() + views_buf.bytes().size();
    return persist::WriteSnapshotFile(path, pieces, total / 2);
  }
  return persist::WriteSnapshotFile(path, pieces);
}

Status Session::Restore(const std::string& path) {
  if (!views_.empty() || !fact_log_.empty() || !fact_index_.empty() ||
      clock_.live() > 0 || substrate_->router().pending() > 0) {
    return Status::FailedPrecondition(
        "Restore requires a freshly constructed session (no views, facts, "
        "or pending messages)");
  }
  std::vector<uint8_t> payload;
  RECNET_RETURN_IF_ERROR(persist::ReadSnapshotPayload(path, &payload));
  persist::Reader raw(payload);
  persist::SnapshotSummary summary;
  RECNET_RETURN_IF_ERROR(persist::ReadSummary(&raw, &summary));

  const Router& router = substrate_->router();
  if (summary.num_physical != router.num_physical()) {
    return Status::InvalidArgument(
        "snapshot deployment (num_physical=" +
        std::to_string(summary.num_physical) +
        ") does not match this session's; the shard count alone may differ");
  }
  if (summary.num_nodes < router.num_logical()) {
    return Status::InvalidArgument(
        "this session's node-id space (" +
        std::to_string(router.num_logical()) +
        " nodes) already exceeds the snapshot's (" +
        std::to_string(summary.num_nodes) + ")");
  }

  persist::BddDecoder dec(substrate_->bdd_manager());
  persist::SnapshotReader sr(&raw, &dec);

  // Clock.
  double now = raw.F64();
  uint64_t ndeadlines = raw.Count(9);
  std::vector<std::pair<double, Tuple>> deadlines;
  deadlines.reserve(ndeadlines);
  for (uint64_t i = 0; i < ndeadlines && raw.ok(); ++i) {
    double deadline = raw.F64();
    deadlines.emplace_back(deadline, sr.GetTuple());
  }

  // Fact log.
  uint64_t nslots = raw.Count(2);
  std::vector<std::pair<bool, Tuple>> slots;
  slots.reserve(nslots);
  for (uint64_t i = 0; i < nslots && raw.ok(); ++i) {
    bool live = raw.Bool();
    slots.emplace_back(live, sr.GetTuple());
  }
  RECNET_RETURN_IF_ERROR(sr.Check("session store"));

  // Programs.
  uint32_t nprograms = raw.U32();
  if (raw.ok() && nprograms != summary.views.size()) {
    return Status::DataLoss(
        "snapshot program count disagrees with its summary");
  }
  struct ProgramRecord {
    std::string source;
    EngineOptions options;
  };
  std::vector<ProgramRecord> programs(raw.ok() ? nprograms : 0);
  for (ProgramRecord& prog : programs) {
    prog.source = raw.Str();
    RECNET_RETURN_IF_ERROR(DecodeEngineOptions(&raw, &prog.options));
  }

  // Base-variable allocator image (applied after the programs rebuild, when
  // the substrate's allocator is still empty).
  uint64_t ndead = raw.Count(1);
  std::vector<char> dead_vars(ndead);
  for (uint64_t i = 0; i < ndead && raw.ok(); ++i) {
    dead_vars[i] = static_cast<char>(raw.U8());
  }
  RECNET_RETURN_IF_ERROR(raw.Check("program records"));

  // Re-instantiate every program without loading any facts: the operator
  // states carry their effects. This must precede EnsureNodes so the graph
  // views exist to observe the topology growth.
  for (const ProgramRecord& prog : programs) {
    StatusOr<View*> added =
        AddProgramImpl(prog.source, prog.options, /*load_facts=*/false);
    if (!added.ok()) {
      return Status(added.status().code(),
                    "restoring program: " + added.status().message());
    }
  }
  for (size_t i = 0; i < views_.size(); ++i) {
    if (views_[i]->plan_.view != summary.views[i].name) {
      return Status::DataLoss(
          "snapshot view order disagrees with its summary");
    }
  }
  EnsureNodes(summary.num_nodes);
  substrate_->RestoreDeadVars(std::move(dead_vars));

  RECNET_RETURN_IF_ERROR(dec.ReadNodeTable(&raw));
  for (const auto& view : views_) {
    RECNET_RETURN_IF_ERROR(
        view->runtime_->native_runtime().LoadState(sr));
  }
  for (const auto& view : views_) {
    NetworkStats stats = sr.GetStats();
    substrate_->router().LoadStats(
        view->runtime_->native_runtime().port_namespace(), stats);
  }
  RECNET_RETURN_IF_ERROR(sr.Check("snapshot"));
  if (raw.remaining() != 0) {
    return Status::DataLoss("snapshot payload has trailing bytes");
  }

  // Commit the session-local state last, once nothing can fail.
  clock_.RestoreNow(now);
  for (const auto& [deadline, tagged] : deadlines) {
    clock_.RestoreDeadline(deadline, tagged);
  }
  fact_log_.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    auto& [live, tag] = slots[i];
    if (tag.size() < 1 || !tag.at(0).is_string()) {
      return Status::DataLoss("snapshot fact log holds a malformed tag");
    }
    std::string relation = tag.StringAt(0);
    std::vector<Value> values(tag.values().begin() + 1, tag.values().end());
    fact_log_.emplace_back(live ? relation : std::string(),
                           Tuple(std::move(values)));
    fact_index_.emplace(std::move(tag), i);
  }
  return Status::OK();
}

// --- View -------------------------------------------------------------------

Status View::Apply() { return session_->ApplyFrom(runtime_.get()); }

StatusOr<std::vector<Tuple>> View::Scan(const std::string& view) const {
  return runtime_->Scan(view);
}

StatusOr<bool> View::Contains(const std::string& view,
                              const Tuple& tuple) const {
  StatusOr<Tuple> found = runtime_->Lookup(view, tuple);
  if (found.ok()) return true;
  if (found.status().code() == StatusCode::kNotFound) return false;
  return found.status();
}

StatusOr<bool> View::Contains(const std::string& view,
                              std::initializer_list<double> tuple) const {
  return Contains(view, TupleOfDoubles(tuple));
}

StatusOr<Tuple> View::Lookup(const std::string& view, const Tuple& key) const {
  return runtime_->Lookup(view, key);
}

StatusOr<Tuple> View::Lookup(const std::string& view,
                             std::initializer_list<double> key) const {
  return Lookup(view, TupleOfDoubles(key));
}

StatusOr<std::vector<Tuple>> View::Explain(const std::string& view,
                                           const Tuple& tuple) const {
  if (view != plan_.view) {
    return Status::InvalidArgument(
        "provenance witnesses exist for the recursive view '" + plan_.view +
        "' only, not '" + view + "'");
  }
  return runtime_->Explain(tuple);
}

}  // namespace recnet
