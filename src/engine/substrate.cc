#include "engine/substrate.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "engine/runtime_base.h"

namespace recnet {

Substrate::Substrate(int num_nodes, const SubstrateOptions& options)
    : router_(num_nodes,
              // The physical peer pool is capped by the initial logical
              // topology exactly as the one-runtime-per-router design did;
              // a substrate created empty (num_nodes == 0, nodes arrive
              // with the first facts) keeps the full peer pool.
              num_nodes > 0 ? std::min(num_nodes, options.num_physical)
                            : options.num_physical,
              std::max(1, options.shards)) {
  router_.set_batch_handler(
      [this](const Envelope* envs, size_t n) { Dispatch(envs, n); });
  injector_ = options.injector;
  if (injector_ == nullptr && options.faults.enabled()) {
    injector_ = std::make_shared<fault::FaultInjector>(options.faults);
  }
  if (injector_ != nullptr) router_.set_fault_injector(injector_.get());
  next_k_.assign(static_cast<size_t>(router_.num_shards()), 0);
}

Substrate::~Substrate() {
  for (auto& slot : dead_chunks_) {
    delete[] slot.load(std::memory_order_relaxed);
  }
}

bool Substrate::PollFault(DrainOutcome* out) {
  if (injector_ == nullptr) return false;
  injector_->TickGeneration();
  std::string site;
  if (injector_->ShouldKillWorker(&site) ||
      injector_->ShouldFailAlloc(&site)) {
    out->faulted = true;
    out->fault_site = std::move(site);
    return true;
  }
  return false;
}

void Substrate::MaybeBarrierHook() {
  if (barrier_hook_ == nullptr || hook_interval_ == 0) return;
  if (++gens_since_hook_ >= hook_interval_) {
    gens_since_hook_ = 0;
    barrier_hook_();
  }
}

void Substrate::EnsureNodes(int num_nodes) {
  if (num_nodes <= router_.num_logical()) return;
  router_.GrowLogical(num_nodes);
  for (RuntimeBase* rt : runtimes_) {
    if (rt != nullptr) rt->OnTopologyGrown(num_nodes);
  }
}

bdd::Var Substrate::AllocVar() {
  // Draw from the calling shard's id stream: shard workers allocate from
  // their own stream, external callers (current_shard() == 0 outside a
  // drain) from stream 0. Stream counters need no synchronization — each
  // is advanced by exactly one thread per generation, with barriers
  // ordering the generations.
  size_t shard = static_cast<size_t>(Router::current_shard());
  uint64_t stride = static_cast<uint64_t>(router_.num_shards());
  uint64_t v = next_k_[shard]++ * stride + shard;
  RECNET_CHECK_LT(v, kMaxDeadChunks * kDeadChunkSize);
  return static_cast<bdd::Var>(v);
}

std::atomic<uint32_t>& Substrate::DeadSlot(bdd::Var v) {
  size_t chunk_idx = v >> kDeadChunkBits;
  std::atomic<uint32_t>* chunk =
      dead_chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    while (dead_alloc_lock_.exchange(true, std::memory_order_acquire)) {
    }
    chunk = dead_chunks_[chunk_idx].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new std::atomic<uint32_t>[kDeadChunkSize];
      for (size_t i = 0; i < kDeadChunkSize; ++i) {
        chunk[i].store(0, std::memory_order_relaxed);
      }
      dead_chunks_[chunk_idx].store(chunk, std::memory_order_release);
    }
    dead_alloc_lock_.store(false, std::memory_order_release);
  }
  return chunk[v & kDeadChunkMask];
}

bool Substrate::MarkDead(bdd::Var v) {
  // Epoch-at-mark + 1, plus one more when the mark is staged mid-generation
  // (visible only after the next barrier advances the epoch). The CAS makes
  // first-marker-wins exact under parallel workers; losing means the
  // variable was already dead.
  uint64_t t = dead_epoch() + (router_.draining() ? 2 : 1);
  RECNET_CHECK_LT(t, UINT32_MAX);
  uint32_t expected = 0;
  if (!DeadSlot(v).compare_exchange_strong(expected,
                                           static_cast<uint32_t>(t),
                                           std::memory_order_relaxed)) {
    return false;
  }
  num_dead_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t Substrate::VarWatermark() const {
  uint64_t stride = static_cast<uint64_t>(router_.num_shards());
  uint64_t watermark = 0;
  for (size_t s = 0; s < next_k_.size(); ++s) {
    if (next_k_[s] == 0) continue;
    watermark = std::max(watermark, (next_k_[s] - 1) * stride + s + 1);
  }
  return watermark;
}

std::vector<char> Substrate::dead_vars() const {
  uint64_t len = VarWatermark();
  std::vector<char> out(static_cast<size_t>(len), 0);
  uint64_t visible_bound = dead_epoch() + 1;
  for (uint64_t v = 0; v < len; ++v) {
    const std::atomic<uint32_t>* chunk =
        dead_chunks_[v >> kDeadChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      v |= kDeadChunkMask;  // Skip the rest of the absent chunk.
      continue;
    }
    uint32_t t = chunk[v & kDeadChunkMask].load(std::memory_order_relaxed);
    if (t == 0) continue;
    out[static_cast<size_t>(v)] = t <= visible_bound ? 1 : 2;
  }
  return out;
}

void Substrate::RestoreDeadVars(std::vector<char> dead) {
  // Only a virgin substrate may be restored into: any allocation that
  // happened before this point would alias the snapshot's variable ids.
  for (uint64_t k : next_k_) RECNET_CHECK_EQ(k, 0u);
  size_t marked = 0;
  for (size_t v = 0; v < dead.size(); ++v) {
    if (dead[v] == 0) continue;
    // Visible marks restore below the fresh epoch; staged marks restore at
    // it, becoming visible at the resumed drain's next barrier — exactly
    // the visibility the checkpoint captured.
    DeadSlot(static_cast<bdd::Var>(v))
        .store(dead[v] == 1 ? 1u : static_cast<uint32_t>(dead_epoch() + 2),
               std::memory_order_relaxed);
    ++marked;
  }
  num_dead_.store(marked, std::memory_order_relaxed);
  // Advance every id stream past the snapshot's watermark. Ids below it
  // that fall on this substrate's streams but were holes (or live ids) of
  // the snapshot's stream layout cannot be told apart, so all are skipped —
  // id values are unobservable, only freshness matters.
  uint64_t stride = static_cast<uint64_t>(router_.num_shards());
  uint64_t len = static_cast<uint64_t>(dead.size());
  for (size_t s = 0; s < next_k_.size(); ++s) {
    next_k_[s] = len > s ? (len - 1 - s) / stride + 1 : 0;
  }
}

int Substrate::Attach(RuntimeBase* runtime) {
  int ns = static_cast<int>(runtimes_.size());
  if (ns > 0) {
    int router_ns = router_.AddNamespace();
    RECNET_CHECK_EQ(router_ns, ns);
  }
  runtimes_.push_back(runtime);
  return ns;
}

void Substrate::Detach(RuntimeBase* runtime) {
  for (size_t ns = 0; ns < runtimes_.size(); ++ns) {
    if (runtimes_[ns] != runtime) continue;
    runtimes_[ns] = nullptr;
    // Drop any traffic the retiring view still has queued, so a later
    // drain cannot dispatch into the dead namespace (Dispatch CHECKs).
    router_.PurgeNamespace(static_cast<int>(ns));
  }
}

void Substrate::Dispatch(const Envelope* envs, size_t n) {
  // A delivery run never mixes ports, so one namespace lookup routes the
  // whole batch to its owning view.
  size_t ns = static_cast<size_t>(envs[0].port) /
              static_cast<size_t>(Router::kPortsPerNamespace);
  if (ns >= runtimes_.size()) ns = runtimes_.size() - 1;
  RuntimeBase* rt = runtimes_[ns];
  RECNET_CHECK(rt != nullptr);
  rt->DeliverBatch(envs, n);
}

bool Substrate::PollAfterQuiescent(const std::vector<char>& skip_aborted) {
  // Quiescence is a barrier: every queued generation has completed, so any
  // dead-variable mark staged during the drain becomes visible here. The
  // epoch bump happens before the views are polled — kRelative's
  // underivability sweep must see the kills the drain just staged.
  ++quiesce_epochs_;
  // Every live view is polled every round (no short-circuit): one view's
  // re-derivation must not starve another's. Budget-aborted views are
  // skipped — their queues were just purged, so seeding re-derivation work
  // for them would resurrect a run the arbitration cut off.
  bool any = false;
  for (size_t ns = 0; ns < runtimes_.size(); ++ns) {
    RuntimeBase* rt = runtimes_[ns];
    if (rt == nullptr || skip_aborted[ns] != 0) continue;
    if (rt->AfterQuiescent()) any = true;
  }
  return any;
}

Substrate::Arbitration Substrate::BeginArbitration() const {
  Arbitration arb;
  arb.views.resize(runtimes_.size());
  arb.aborted.assign(runtimes_.size(), 0);
  for (size_t ns = 0; ns < runtimes_.size(); ++ns) {
    RuntimeBase* rt = runtimes_[ns];
    if (rt == nullptr) continue;
    arb.views[ns].rt = rt;
    arb.views[ns].base = router_.DeliveredByNs(static_cast<int>(ns));
    arb.views[ns].budget = rt->options().message_budget;
  }
  return arb;
}

void Substrate::EnforceBudgets(Arbitration* arb, DrainOutcome* out) {
  for (size_t ns = 0; ns < arb->views.size(); ++ns) {
    const ViewBudget& v = arb->views[ns];
    if (v.rt == nullptr || arb->aborted[ns] != 0) continue;
    uint64_t used = router_.DeliveredByNs(static_cast<int>(ns)) - v.base;
    if (used >= v.budget) {
      arb->aborted[ns] = 1;
      out->aborted.push_back(static_cast<int>(ns));
      v.rt->AbortForBudget();
    }
  }
}

uint64_t Substrate::StepCapacity(const Arbitration& arb) const {
  uint64_t cap = std::numeric_limits<uint64_t>::max();
  for (size_t ns = 0; ns < arb.views.size(); ++ns) {
    const ViewBudget& v = arb.views[ns];
    if (v.rt == nullptr || arb.aborted[ns] != 0) continue;
    uint64_t used = router_.DeliveredByNs(static_cast<int>(ns)) - v.base;
    // EnforceBudgets runs before every step, so live views have headroom.
    cap = std::min(cap, v.budget - used);
  }
  return cap;
}

Substrate::DrainOutcome Substrate::DrainToFixpoint(const DrainBudget& budget) {
  return router_.num_shards() == 1 ? DrainSequential(budget)
                                   : DrainSupersteps(budget);
}

Substrate::DrainOutcome Substrate::DrainSequential(const DrainBudget& budget) {
  auto start = std::chrono::steady_clock::now();
  DrainOutcome out;
  Arbitration arb = BeginArbitration();
  uint64_t processed = 0;
  // The wall-clock budget is polled every 32 deliveries; batches are
  // clipped at the next poll point so a long coalesced run cannot overshoot
  // the time cap unchecked.
  uint64_t next_time_check = 32;
  do {
    while (router_.pending() > 0) {
      EnforceBudgets(&arb, &out);
      if (router_.pending() == 0) break;  // Aborts purged everything queued.
      // One injector tick per delivery round — the sequential analogue of a
      // superstep generation. A fault stops the drain with the queue intact.
      if (PollFault(&out)) break;
      uint64_t step_cap = StepCapacity(arb);
      if (budget.time_budget_s > 0) {
        step_cap = std::min(step_cap, next_time_check - processed);
      }
      processed += router_.StepBatch(static_cast<size_t>(step_cap));
      if (budget.time_budget_s > 0 && processed >= next_time_check) {
        next_time_check = processed + 32;
        double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        if (elapsed > budget.time_budget_s) {
          out.timed_out = true;
          break;
        }
      }
      MaybeBarrierHook();
    }
    if (out.timed_out || out.faulted) break;
    // Quiescence is the historic abort point for a view that landed exactly
    // on its budget: charge the final step before polling for more work.
    EnforceBudgets(&arb, &out);
  } while (PollAfterQuiescent(arb.aborted));
  return out;
}

Substrate::DrainOutcome Substrate::DrainSupersteps(const DrainBudget& budget) {
  std::chrono::steady_clock::time_point deadline;
  bool timed = budget.time_budget_s > 0;
  if (timed) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(budget.time_budget_s));
  }
  // Shard workers share the manager through the striped unique table and
  // per-worker op caches: give every shard its private slot and switch the
  // hot path to its concurrent (stripe-locked, barrier-GC) mode. Workers
  // are joined at every superstep barrier, so toggling here is race-free.
  // Every provenance mode runs parallel now — kRelative's pseudo-variable
  // allocation uses per-shard interleaved id streams and its kills are
  // staged behind the barrier epoch, so the schedule no longer leaks.
  // A single-hardware-thread host never spawns drain workers (the router
  // interleaves shards on this thread), so it keeps the manager's cheaper
  // single-threaded mode; results are bit-identical either way.
  const bool parallel = Router::ParallelWidth() > 1;
  bdd_.EnsureWorkerSlots(static_cast<size_t>(router_.num_shards()));
  bdd_.set_concurrent(parallel);
  DrainOutcome out;
  Arbitration arb = BeginArbitration();
  do {
    while (router_.pending() > 0) {
      // Between generations the workers are joined, so enforcing budgets
      // (and the namespace purges an abort triggers) is race-free.
      EnforceBudgets(&arb, &out);
      if (router_.pending() == 0) break;
      // One injector tick per superstep generation, polled on the
      // coordinator with workers joined: a fired fault models a shard
      // worker dying mid-superstep (the generation never completes).
      if (PollFault(&out)) break;
      Router::StepResult step = router_.ProcessGeneration(
          StepCapacity(arb), parallel, timed ? &deadline : nullptr);
      // Superstep barrier: workers are joined, every live BDD node is
      // reachable from a Ref'd root, so this is the safe (and only) GC
      // point of a concurrent drain.
      if (parallel) bdd_.CollectAtBarrier();
      if (step.deadline_exceeded) {
        out.timed_out = true;
        break;
      }
      MaybeBarrierHook();
    }
    if (out.timed_out || out.faulted) break;
    EnforceBudgets(&arb, &out);
  } while (PollAfterQuiescent(arb.aborted));
  bdd_.set_concurrent(false);
  return out;
}

}  // namespace recnet
