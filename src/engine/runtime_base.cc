#include "engine/runtime_base.h"

#include <algorithm>
#include <chrono>

#include "persist/codec.h"

namespace recnet {

RuntimeBase::RuntimeBase(std::shared_ptr<Substrate> substrate, int num_logical,
                         const RuntimeOptions& options, size_t ship_dest_col,
                         size_t node_reserve)
    : opts_(options), sub_(std::move(substrate)), ship_dest_col_(ship_dest_col) {
  RECNET_CHECK(sub_ != nullptr);
  // Grow the shared node-id space first (only other views are notified —
  // this one is being built at the requested size), then claim a port
  // namespace.
  sub_->EnsureNodes(num_logical);
  num_logical_ = num_logical;
  ns_ = sub_->Attach(this);
  port_base_ = ns_ * Router::kPortsPerNamespace;
  subs_.resize(static_cast<size_t>(num_logical));
  kills_done_.resize(static_cast<size_t>(num_logical));
  view_delta_logs_.resize(
      static_cast<size_t>(sub_->router().num_shards()));
  view_nodes_.resize(static_cast<size_t>(num_logical));
  for (int n = 0; n < num_logical; ++n) InitViewNode(n, node_reserve);
}

RuntimeBase::~RuntimeBase() {
  if (sub_ != nullptr) sub_->Detach(this);
}

void RuntimeBase::InitViewNode(int n, size_t reserve) {
  ViewNode& node = view_nodes_[static_cast<size_t>(n)];
  node.fix = std::make_unique<Fixpoint>(opts_.prov);
  node.fix->Reserve(reserve);
  // DRed (set mode) ships directly, like the conventional Ship operator;
  // the provenance schemes use MinShip.
  ShipMode ship_mode =
      opts_.prov == ProvMode::kSet ? ShipMode::kDirect : opts_.ship;
  node.ship = std::make_unique<MinShip>(
      opts_.prov, ship_mode, opts_.batch_window,
      [this, n](const Tuple& tuple, const Prov& pv) {
        LogicalNode dest =
            static_cast<LogicalNode>(tuple.IntAt(ship_dest_col_));
        ShipInsert(n, dest, kPortFix, tuple, pv);
      });
  node.ship->Reserve(reserve);
}

bool RuntimeBase::GrowNodes(int num_nodes) {
  if (num_nodes <= num_logical_) return false;
  int old_nodes = num_logical_;
  num_logical_ = num_nodes;
  subs_.resize(static_cast<size_t>(num_nodes));
  kills_done_.resize(static_cast<size_t>(num_nodes));
  view_nodes_.resize(static_cast<size_t>(num_nodes));
  for (int n = old_nodes; n < num_nodes; ++n) {
    InitViewNode(n, static_cast<size_t>(num_nodes));
  }
  return true;
}

size_t RuntimeBase::ViewSize() const {
  size_t total = 0;
  for (const ViewNode& node : view_nodes_) total += node.fix->size();
  return total;
}

size_t RuntimeBase::StateSizeBytes() const {
  size_t bytes = RuleStateBytes();
  for (const ViewNode& node : view_nodes_) {
    bytes += node.fix->StateSizeBytes() + node.ship->StateSizeBytes();
  }
  return bytes;
}

uint64_t RuntimeBase::CountShipDemotions() const {
  uint64_t total = 0;
  for (const ViewNode& node : view_nodes_) total += node.ship->demotions();
  return total;
}

// --- Base facts ----------------------------------------------------------------

std::optional<bdd::Var> RuntimeBase::AddBaseFact(const Tuple& fact) {
  if (base_facts_.find(fact) != base_facts_.end()) return std::nullopt;
  bdd::Var v = AllocVar();
  base_facts_.emplace(fact, v);
  return v;
}

const bdd::Var* RuntimeBase::BaseVar(const Tuple& fact) const {
  auto it = base_facts_.find(fact);
  return it == base_facts_.end() ? nullptr : &it->second;
}

namespace {

// Table order is layout-dependent; allocation order is not.
void SortByVar(std::vector<std::pair<Tuple, bdd::Var>>* facts) {
  std::sort(facts->begin(), facts->end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
}

}  // namespace

std::vector<std::pair<Tuple, bdd::Var>> RuntimeBase::TakeBaseFacts(
    const Tuple& key, bool by_prefix) {
  std::vector<std::pair<Tuple, bdd::Var>> taken;
  if (!by_prefix) {
    auto it = base_facts_.find(key);
    if (it != base_facts_.end()) {
      taken.emplace_back(it->first, it->second);
      base_facts_.erase(it);
    }
    return taken;
  }
  for (auto it = base_facts_.begin(); it != base_facts_.end();) {
    const Tuple& fact = it->first;
    bool match = fact.size() >= key.size();
    for (size_t i = 0; match && i < key.size(); ++i) {
      match = fact.at(i) == key.at(i);
    }
    if (match) {
      taken.emplace_back(fact, it->second);
      it = base_facts_.erase(it);
    } else {
      ++it;
    }
  }
  SortByVar(&taken);
  return taken;
}

std::vector<std::pair<Tuple, bdd::Var>> RuntimeBase::BaseFactsInOrder() const {
  std::vector<std::pair<Tuple, bdd::Var>> facts(base_facts_.begin(),
                                                base_facts_.end());
  SortByVar(&facts);
  return facts;
}

std::optional<Tuple> RuntimeBase::BaseFactOfVar(bdd::Var v) const {
  for (const auto& [fact, var] : base_facts_) {
    if (var == v) return fact;
  }
  return std::nullopt;
}

// --- Kill cascade and quiescence ------------------------------------------------

void RuntimeBase::DeliverBatch(const Envelope* envs, size_t n) {
  if (LocalPort(envs[0]) != kPortKill) {
    HandleBatch(envs, n);
    return;
  }
  LogicalNode at = envs[0].dst;
  for (size_t i = 0; i < n; ++i) HandleKill(at, envs[i].update.killed);
}

void RuntimeBase::HandleKill(LogicalNode at,
                             const std::vector<bdd::Var>& killed) {
  std::vector<bdd::Var> fresh = AcceptKill(at, killed);
  if (fresh.empty()) return;
  Fixpoint::KillResult result = fix(at).ProcessKill(fresh);
  for (const Tuple& removed : result.removed) OnViewRowRemoved(at, removed);
  KillRuleState(at, fresh);
  ship(at).ProcessKill(fresh);
  if (opts_.prov == ProvMode::kRelative) {
    // Removed tuples invalidate the derivations that reference them.
    for (const Tuple& removed : result.removed) OnTupleRemoved(at, removed);
    relative_check_pending_ = true;
  }
}

bool RuntimeBase::AfterQuiescent() {
  // Demoted MinShips compact their buffers against the shipped state now
  // that the insert storm has drained (no traffic is generated).
  for (ViewNode& node : view_nodes_) node.ship->FlushIfDemoted();
  if (rederive_pending_) {
    rederive_pending_ = false;
    SeedRederivation();
    return true;
  }
  if (relative_check_pending_) {
    // The derivation-graph traversal of relative provenance: the kill
    // cascade removed everything reference-counting can remove; tuples
    // surviving only through cyclic self-support are found by the global
    // derivability fixpoint and force-removed.
    relative_check_pending_ = false;
    std::vector<ViewEntry> view;
    for (LogicalNode n = 0; n < num_logical_; ++n) {
      for (const auto& [tuple, pv] : fix(n).contents()) {
        view.push_back(ViewEntry{n, &tuple, &pv});
      }
    }
    auto underivable = FindUnderivable(view);
    for (const auto& [owner, tuple] : underivable) {
      fix(owner).ProcessDelete(tuple);
      OnViewRowRemoved(owner, tuple);
      OnTupleRemoved(owner, tuple);
    }
    return !underivable.empty();
  }
  return false;
}

bool RuntimeBase::Run() {
  // A fresh run supersedes any frozen abort snapshot: its metrics must be
  // visible again (converged_ stays false until ResetMetrics, recording
  // that some run since the last reset was cut off).
  abort_metrics_.reset();
  last_fault_.clear();
  auto start = std::chrono::steady_clock::now();
  Substrate::DrainOutcome out = sub_->DrainToFixpoint(
      Substrate::DrainBudget{opts_.message_budget, opts_.time_budget_s});
  auto end = std::chrono::steady_clock::now();
  wall_seconds_ += std::chrono::duration<double>(end - start).count();
  bool self_aborted = std::find(out.aborted.begin(), out.aborted.end(), ns_) !=
                      out.aborted.end();
  if (self_aborted && abort_metrics_.has_value()) {
    // The drain's arbitration froze the snapshot (via AbortForBudget)
    // before this run's wall time was booked; patch the timing fields so a
    // ">budget" figure cell still reports what the cutoff cost.
    abort_metrics_->wall_seconds = wall_seconds_;
    abort_metrics_->sim_seconds = EstimateSimSeconds(
        wall_seconds_, abort_metrics_->messages, router().num_physical(),
        kPerMsgLatencyS);
  }
  if (out.faulted) {
    // An injected infrastructure fault stopped the drain. Unlike a budget
    // cutoff nothing is purged or marked non-converged: the queues (and the
    // charge counters that describe them) are exactly the resumable state a
    // recovery rolls back to, so the run is merely incomplete.
    last_fault_ = out.fault_site.empty() ? "fault" : out.fault_site;
    return false;
  }
  if (out.timed_out && !self_aborted) {
    // Wall-clock cutoff: the time budget belongs to the initiating view, so
    // it pays — only THIS view's queued envelopes are dropped (and
    // uncharged), only this view is marked non-converged, and its metrics
    // freeze at the moment of the cutoff. Co-resident views keep their
    // in-flight traffic in FIFO order and can converge on a later Apply.
    // (Message budgets are per view and already enforced inside the drain.)
    router().AbortNamespace(ns_);
    converged_ = false;
    abort_metrics_ = ComputeMetrics();
  }
  return !out.timed_out && !self_aborted;
}

void RuntimeBase::AbortForBudget() {
  // See Run(): identical record to a budget-aborted solo run, produced
  // mid-drain by the fair-share arbitration. Purging uncharges the dropped
  // queue before the metrics snapshot, so the frozen cell is consistent.
  router().AbortNamespace(ns_);
  converged_ = false;
  abort_metrics_ = ComputeMetrics();
}

RunMetrics RuntimeBase::Metrics() const {
  if (abort_metrics_.has_value()) return *abort_metrics_;
  return ComputeMetrics();
}

RunMetrics RuntimeBase::ComputeMetrics() const {
  const NetworkStats s = router().stats(ns_);  // Merged across shards.
  RunMetrics m;
  m.per_tuple_prov_bytes = s.AvgProvBytesPerTuple();
  m.comm_mb = s.CommMB();
  m.state_mb = static_cast<double>(StateSizeBytes()) / (1024.0 * 1024.0);
  m.wall_seconds = wall_seconds_;
  m.sim_seconds = EstimateSimSeconds(wall_seconds_, s.messages,
                                     router().num_physical(),
                                     kPerMsgLatencyS);
  m.messages = s.messages;
  m.kill_messages = s.kill_messages;
  m.batches = s.batches;
  m.aborted_runs = s.aborted_runs;
  m.dropped_messages = s.dropped_messages;
  m.link_dropped = s.link_dropped;
  m.link_duplicated = s.link_duplicated;
  m.link_retried = s.link_retried;
  m.converged = converged_;
  const bdd::Manager& mgr = *sub_->bdd_manager();
  m.bdd_stripe_contention = mgr.stripe_contention();
  uint64_t lookups = mgr.cache_lookups();
  m.bdd_cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(mgr.cache_hits()) /
                         static_cast<double>(lookups);
  m.bdd_store_segments = static_cast<uint64_t>(mgr.store_segments());
  m.ship_demotions = CountShipDemotions();
  return m;
}

void RuntimeBase::SaveState(persist::SnapshotWriter& w) const {
  persist::Writer& raw = w.raw();
  raw.U64(num_dead_.load(std::memory_order_relaxed));
  // Relative-provenance pseudo-variables. tuple_vars_ re-inserts in
  // iteration order (flat-table layout reproduction — TupleVar misses probe
  // it); var_tuples_ is lookup-only.
  raw.U64(tuple_vars_.size());
  for (const auto& [tuple, var] : tuple_vars_) {
    w.PutTuple(tuple);
    raw.U32(var);
  }
  raw.U64(var_tuples_.size());
  for (const auto& [var, tuple] : var_tuples_) {
    raw.U32(var);
    w.PutTuple(tuple);
  }
  // Kill-subscription routing, per logical node, in table order (AcceptKill
  // only probes, but ShipInsert appends to the per-variable destination
  // lists, whose order decides kill fan-out order — saved verbatim).
  raw.U32(static_cast<uint32_t>(subs_.size()));
  for (const auto& node_subs : subs_) {
    raw.U64(node_subs.size());
    for (const auto& [var, dests] : node_subs) {
      raw.U32(var);
      raw.U32(static_cast<uint32_t>(dests.size()));
      for (LogicalNode d : dests) raw.I32(d);
    }
  }
  // Per-node kill dedup sets (membership-only).
  raw.U32(static_cast<uint32_t>(kills_done_.size()));
  for (const auto& done : kills_done_) {
    raw.U64(done.size());
    for (bdd::Var v : done) raw.U32(v);
  }
  raw.F64(wall_seconds_);
  raw.Bool(converged_);
  raw.Bool(abort_metrics_.has_value());
  if (abort_metrics_.has_value()) w.PutMetrics(*abort_metrics_);
  // Base facts (lookup-only: TakeBaseFacts orders by variable).
  raw.U64(base_facts_.size());
  for (const auto& [fact, var] : base_facts_) {
    w.PutTuple(fact);
    raw.U32(var);
  }
  raw.Bool(rederive_pending_);
  raw.Bool(relative_check_pending_);
  raw.U32(static_cast<uint32_t>(view_nodes_.size()));
  for (const ViewNode& node : view_nodes_) {
    node.fix->SaveState(w);
    node.ship->SaveState(w);
  }
}

Status RuntimeBase::LoadState(persist::SnapshotReader& r) {
  persist::Reader& raw = r.raw();
  num_dead_.store(static_cast<size_t>(raw.U64()), std::memory_order_relaxed);
  uint64_t num_tuple_vars = raw.Count(4);
  tuple_vars_.reserve(num_tuple_vars);
  for (uint64_t i = 0; i < num_tuple_vars && raw.ok(); ++i) {
    Tuple tuple = r.GetTuple();
    bdd::Var var = raw.U32();
    tuple_vars_.emplace(std::move(tuple), var);
  }
  uint64_t num_var_tuples = raw.Count(4);
  var_tuples_.reserve(num_var_tuples);
  for (uint64_t i = 0; i < num_var_tuples && raw.ok(); ++i) {
    bdd::Var var = raw.U32();
    var_tuples_.emplace(var, r.GetTuple());
  }
  uint32_t num_sub_nodes = raw.U32();
  if (raw.ok() && num_sub_nodes != subs_.size()) {
    return Status::InvalidArgument(
        "snapshot view state spans a different node count than the "
        "reconstructed runtime");
  }
  for (uint32_t n = 0; n < num_sub_nodes && raw.ok(); ++n) {
    auto& node_subs = subs_[n];
    RECNET_CHECK(node_subs.empty());
    uint64_t nvars = raw.Count(9);
    node_subs.reserve(nvars);
    for (uint64_t i = 0; i < nvars && raw.ok(); ++i) {
      bdd::Var var = raw.U32();
      uint32_t ndests = raw.U32();
      if (!raw.CanRead(static_cast<size_t>(ndests) * 4)) break;
      std::vector<LogicalNode>& dests = node_subs[var];
      dests.reserve(ndests);
      for (uint32_t j = 0; j < ndests; ++j) dests.push_back(raw.I32());
    }
  }
  uint32_t num_kill_nodes = raw.U32();
  if (raw.ok() && num_kill_nodes != kills_done_.size()) {
    return Status::InvalidArgument(
        "snapshot kill-dedup state spans a different node count than the "
        "reconstructed runtime");
  }
  for (uint32_t n = 0; n < num_kill_nodes && raw.ok(); ++n) {
    auto& done = kills_done_[n];
    RECNET_CHECK(done.empty());
    uint64_t nvars = raw.Count(4);
    done.reserve(nvars);
    for (uint64_t i = 0; i < nvars && raw.ok(); ++i) done.insert(raw.U32());
  }
  wall_seconds_ = raw.F64();
  converged_ = raw.Bool();
  if (raw.Bool()) {
    abort_metrics_ = r.GetMetrics();
  } else {
    abort_metrics_.reset();
  }
  RECNET_CHECK(base_facts_.empty());
  uint64_t num_facts = raw.Count(4);
  base_facts_.reserve(num_facts);
  for (uint64_t i = 0; i < num_facts && raw.ok(); ++i) {
    Tuple fact = r.GetTuple();
    bdd::Var var = raw.U32();
    base_facts_.emplace(std::move(fact), var);
  }
  rederive_pending_ = raw.Bool();
  relative_check_pending_ = raw.Bool();
  uint32_t num_view_nodes = raw.U32();
  if (raw.ok() && num_view_nodes != view_nodes_.size()) {
    return Status::InvalidArgument(
        "snapshot operator state spans a different node count than the "
        "reconstructed runtime");
  }
  for (uint32_t n = 0; n < num_view_nodes && raw.ok(); ++n) {
    RECNET_RETURN_IF_ERROR(view_nodes_[n].fix->LoadState(r));
    RECNET_RETURN_IF_ERROR(view_nodes_[n].ship->LoadState(r));
  }
  return r.Check("runtime base state");
}

void RuntimeBase::ResetMetrics() {
  router().ResetStats(ns_);
  wall_seconds_ = 0;
  converged_ = true;
  abort_metrics_.reset();
}

Prov RuntimeBase::GuardIncoming(const Prov& pv) const {
  // Per-view fast path: only this view's own dead variables can appear in
  // its annotations, so neighbors' kills never force the support scan.
  if (!AnyDead() || opts_.prov == ProvMode::kSet) return pv;
  // Scratch for the support extraction is thread-local (not a member):
  // parallel shard workers guard concurrently for different nodes, and the
  // common case still allocates nothing after warm-up.
  static thread_local std::vector<bdd::Var> support_scratch;
  static thread_local std::vector<bdd::Var> dead_scratch;
  support_scratch.clear();
  pv.SupportVars(&support_scratch);
  dead_scratch.clear();
  for (bdd::Var v : support_scratch) {
    if (sub_->is_dead(v)) dead_scratch.push_back(v);
  }
  if (dead_scratch.empty()) return pv;
  return pv.RestrictFalse(dead_scratch);
}

void RuntimeBase::ShipInsert(LogicalNode from, LogicalNode to, int port,
                             Tuple tuple, Prov pv) {
  if (opts_.prov != ProvMode::kSet && from != to) {
    static thread_local std::vector<bdd::Var> support_scratch;
    support_scratch.clear();
    pv.SupportVars(&support_scratch);
    auto& from_subs = subs_[static_cast<size_t>(from)];
    for (bdd::Var v : support_scratch) {
      std::vector<LogicalNode>& dests = from_subs[v];
      if (std::find(dests.begin(), dests.end(), to) == dests.end()) {
        dests.push_back(to);
      }
    }
  }
  Send(from, to, port, Update::Insert(std::move(tuple), std::move(pv)));
}

void RuntimeBase::StartKill(LogicalNode origin, std::vector<bdd::Var> killed) {
  for (bdd::Var v : killed) MarkDead(v);
  Send(origin, origin, kPortKill, Update::Kill(std::move(killed)));
}

std::vector<bdd::Var> RuntimeBase::AcceptKill(
    LogicalNode at, const std::vector<bdd::Var>& killed) {
  auto& done = kills_done_[static_cast<size_t>(at)];
  std::vector<bdd::Var> fresh;
  for (bdd::Var v : killed) {
    if (done.insert(v).second) fresh.push_back(v);
  }
  if (fresh.empty()) return fresh;
  // Forward along subscription edges, grouped per destination so each
  // neighbor receives one kill message for this batch. The per-destination
  // buffers come from the router's kill arena (recycled storage scavenged
  // from delivered kill envelopes on this node's shard), so steady-state
  // kill routing does not allocate. The grouping map itself stays a fresh
  // local: its iteration order decides kill send order, and a reused map's
  // bucket history would perturb that order between schedules.
  std::unordered_map<LogicalNode, std::vector<bdd::Var>> forward;
  auto& at_subs = subs_[static_cast<size_t>(at)];
  for (bdd::Var v : fresh) {
    auto it = at_subs.find(v);
    if (it == at_subs.end()) continue;
    for (LogicalNode dest : it->second) {
      auto [slot, inserted] = forward.try_emplace(dest);
      if (inserted) slot->second = router().AcquireKillBuffer(at);
      slot->second.push_back(v);
    }
  }
  for (auto& [dest, vars] : forward) {
    Send(at, dest, kPortKill, Update::Kill(std::move(vars)));
  }
  return fresh;
}

bdd::Var RuntimeBase::TupleVar(const Tuple& t) {
  // Parallel shard workers race to name the same tuple; the mutex makes the
  // find-or-alloc atomic so exactly one pseudo-variable ever stands for a
  // tuple. AllocVar is safe under the lock: it only advances the calling
  // shard's private id stream.
  std::lock_guard<std::mutex> lock(tuple_vars_mu_);
  auto it = tuple_vars_.find(t);
  if (it != tuple_vars_.end()) return it->second;
  bdd::Var v = AllocVar();
  tuple_vars_.emplace(t, v);
  var_tuples_.emplace(v, t);
  return v;
}

Prov RuntimeBase::RefProv(const Tuple& t) {
  return Prov::BaseVar(opts_.prov, sub_->bdd_manager(), TupleVar(t));
}

void RuntimeBase::OnTupleRemoved(LogicalNode owner, const Tuple& t) {
  if (opts_.prov != ProvMode::kRelative) return;
  bdd::Var v;
  {
    std::lock_guard<std::mutex> lock(tuple_vars_mu_);
    auto it = tuple_vars_.find(t);
    if (it == tuple_vars_.end()) return;
    v = it->second;
    tuple_vars_.erase(it);
    // Keep the reverse entry: annotations in flight may still mention v,
    // and the dead-variable guard needs to classify it. The variable is
    // dead and never reused.
  }
  // The kill is sent outside the lock — StartKill routes through the
  // subscription tables and the router, neither of which touches the
  // pseudo-variable tables.
  StartKill(owner, {v});
}

std::vector<std::pair<LogicalNode, Tuple>> RuntimeBase::FindUnderivable(
    const std::vector<ViewEntry>& view) const {
  // Least fixpoint: a tuple is derivable iff some derivation references
  // only live base variables and derivable antecedent tuples. Tuples
  // supported only through cycles never enter the fixpoint.
  std::unordered_map<Tuple, size_t, TupleHash> index;
  index.reserve(view.size());
  for (size_t i = 0; i < view.size(); ++i) index.emplace(*view[i].tuple, i);
  std::vector<bool> derivable(view.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < view.size(); ++i) {
      if (derivable[i]) continue;
      for (const auto& derivation : view[i].pv->rel().derivations) {
        bool valid = true;
        for (bdd::Var v : derivation) {
          if (sub_->is_dead(v)) {
            valid = false;
            break;
          }
          auto vt = var_tuples_.find(v);
          if (vt != var_tuples_.end()) {
            auto idx = index.find(vt->second);
            if (idx == index.end() || !derivable[idx->second]) {
              valid = false;
              break;
            }
          }
        }
        if (valid) {
          derivable[i] = true;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<std::pair<LogicalNode, Tuple>> underivable;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!derivable[i]) underivable.emplace_back(view[i].owner, *view[i].tuple);
  }
  return underivable;
}

}  // namespace recnet
