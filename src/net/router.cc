#include "net/router.h"

#include <algorithm>
#include <cstddef>
#include <thread>

#include "bdd/bdd.h"
#include "common/logging.h"
#include "fault/fault.h"

namespace recnet {
namespace {

// Mailbox buffers scavenged back into the per-shard kill pool are capped so
// pathological kill storms cannot pin unbounded memory.
constexpr size_t kMaxKillPool = 256;

// Below this many queued messages a generation is drained by interleaving
// shards on the calling thread: the schedules are bit-identical, so this is
// purely a thread-spawn amortization threshold.
constexpr size_t kParallelCutover = 64;

// Test override of the drain's worker-thread budget (0 = hardware auto).
std::atomic<int> g_parallel_width_override{0};

}  // namespace

thread_local int Router::tls_shard_ = 0;

int Router::ParallelWidth() {
  int forced = g_parallel_width_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return hw;
}

void Router::OverrideParallelWidth(int width) {
  g_parallel_width_override.store(width, std::memory_order_relaxed);
}

void NetworkStats::Reset() {
  messages = 0;
  bytes = 0;
  local_messages = 0;
  insert_messages = 0;
  delete_messages = 0;
  kill_messages = 0;
  prov_bytes = 0;
  prov_samples = 0;
  batches = 0;
  aborted_runs = 0;
  dropped_messages = 0;
  link_dropped = 0;
  link_duplicated = 0;
  link_retried = 0;
  std::fill(per_peer_bytes.begin(), per_peer_bytes.end(), 0);
}

void NetworkStats::Accumulate(const NetworkStats& o) {
  messages += o.messages;
  bytes += o.bytes;
  local_messages += o.local_messages;
  insert_messages += o.insert_messages;
  delete_messages += o.delete_messages;
  kill_messages += o.kill_messages;
  prov_bytes += o.prov_bytes;
  prov_samples += o.prov_samples;
  batches += o.batches;
  aborted_runs += o.aborted_runs;
  dropped_messages += o.dropped_messages;
  link_dropped += o.link_dropped;
  link_duplicated += o.link_duplicated;
  link_retried += o.link_retried;
  if (per_peer_bytes.size() < o.per_peer_bytes.size()) {
    per_peer_bytes.resize(o.per_peer_bytes.size(), 0);
  }
  for (size_t i = 0; i < o.per_peer_bytes.size(); ++i) {
    per_peer_bytes[i] += o.per_peer_bytes[i];
  }
}

Router::Router(int num_logical, int num_physical, int num_shards)
    : num_logical_(num_logical), num_physical_(num_physical) {
  RECNET_CHECK_GE(num_logical, 0);
  RECNET_CHECK_GT(num_physical, 0);
  RECNET_CHECK_GT(num_shards, 0);
  shards_.resize(static_cast<size_t>(num_shards));
  for (RouterShard& s : shards_) {
    s.mailboxes.resize(static_cast<size_t>(num_shards));
    s.stats.resize(1);
    s.stats[0].per_peer_bytes.assign(static_cast<size_t>(num_physical), 0);
    s.delivered_by_ns.assign(1, 0);
  }
  if (num_shards == 1) {
    // Head off the first run's reallocation cascade (every grow moves all
    // pending envelopes). Sharded routers spread the load, so each buffer
    // starts small and keeps whatever capacity its generations reach.
    shards_[0].queue.reserve(1024);
    shards_[0].mailboxes[0].reserve(1024);
  }
}

int Router::AddNamespace() {
  for (RouterShard& s : shards_) {
    s.stats.emplace_back();
    s.stats.back().per_peer_bytes.assign(static_cast<size_t>(num_physical_),
                                         0);
    s.delivered_by_ns.push_back(0);
  }
  return num_namespaces_++;
}

void Router::GrowLogical(int num_logical) {
  if (num_logical > num_logical_) num_logical_ = num_logical;
}

void Router::ChargeSend(LogicalNode src, LogicalNode dst, int port,
                        const Update& update) {
  RECNET_DCHECK(src >= 0 && src < num_logical_);
  RECNET_DCHECK(dst >= 0 && dst < num_logical_);
  NetworkStats& s =
      shards_[static_cast<size_t>(ShardOf(src))]
          .stats[static_cast<size_t>(NamespaceOf(port))];
  if (PhysicalOf(src) == PhysicalOf(dst)) {
    ++s.local_messages;
    return;
  }
  size_t wire = update.WireSizeBytes();
  ++s.messages;
  s.bytes += wire;
  s.per_peer_bytes[static_cast<size_t>(PhysicalOf(src))] += wire;
  switch (update.type) {
    case UpdateType::kInsert:
      ++s.insert_messages;
      s.prov_bytes += update.pv.WireSizeBytes();
      ++s.prov_samples;
      break;
    case UpdateType::kDelete:
      ++s.delete_messages;
      break;
    case UpdateType::kKill:
      ++s.kill_messages;
      break;
  }
}

void Router::Send(LogicalNode src, LogicalNode dst, int port,
                  Update&& update) {
  ChargeSend(src, dst, port, update);
  RouterShard& shard = shards_[static_cast<size_t>(ShardOf(src))];
  std::vector<Envelope>& mailbox =
      shard.mailboxes[static_cast<size_t>(ShardOf(dst))];
  // Construct in place: one Update move, not temporary-then-move.
  mailbox.emplace_back(src, dst, port, std::move(update));
  Envelope& env = mailbox.back();
  if (draining_) {
    // Handler send: ordered after the delivery being processed. The shard
    // context is race-free because handlers send from the node they are
    // processing, which resides on this worker's shard.
    env.key_trig = shard.cur_trig;
    env.key_sub = shard.cur_sub++;
  } else {
    env.key_trig = ext_trig_;
    env.key_sub = ext_sub_++;
  }
}

void Router::SendBatch(LogicalNode src, LogicalNode dst, int port,
                       std::vector<Update> updates) {
  std::vector<Envelope>& mailbox =
      shards_[static_cast<size_t>(ShardOf(src))]
          .mailboxes[static_cast<size_t>(ShardOf(dst))];
  mailbox.reserve(mailbox.size() + updates.size());
  for (Update& update : updates) {
    Send(src, dst, port, std::move(update));
  }
}

std::vector<bdd::Var> Router::AcquireKillBuffer(LogicalNode src) {
  auto& pool = shards_[static_cast<size_t>(ShardOf(src))].kill_pool;
  if (pool.empty()) return {};
  std::vector<bdd::Var> buf = std::move(pool.back());
  pool.pop_back();
  return buf;
}

size_t Router::pending() const {
  size_t n = 0;
  for (const RouterShard& s : shards_) {
    n += s.queued() + s.outgoing() + s.retry.size();
  }
  return n;
}

uint64_t Router::delivered() const {
  uint64_t n = 0;
  for (const RouterShard& s : shards_) n += s.delivered;
  return n;
}

NetworkStats Router::stats(int ns) const {
  NetworkStats out = shards_[0].stats[static_cast<size_t>(ns)];
  for (size_t i = 1; i < shards_.size(); ++i) {
    out.Accumulate(shards_[i].stats[static_cast<size_t>(ns)]);
  }
  return out;
}

void Router::ResetStats(int ns) {
  for (RouterShard& s : shards_) s.stats[static_cast<size_t>(ns)].Reset();
}

void Router::LoadStats(int ns, const NetworkStats& stats) {
  ResetStats(ns);
  NetworkStats& s0 = shards_[0].stats[static_cast<size_t>(ns)];
  s0 = stats;
  s0.per_peer_bytes.resize(static_cast<size_t>(num_physical_), 0);
}

uint64_t Router::DeliveredByNs(int ns) const {
  uint64_t n = 0;
  for (const RouterShard& s : shards_) {
    n += s.delivered_by_ns[static_cast<size_t>(ns)];
  }
  return n;
}

size_t Router::PrepareGeneration() {
  for (const RouterShard& s : shards_) {
    if (s.head < s.queue.size()) return pending();  // Mid-generation.
  }
  if (num_shards() == 1) {
    // Single-shard fast path: the swap *is* the merge (one mailbox, already
    // in send order), exactly the classic router's two-phase FIFO refill.
    RouterShard& s = shards_[0];
    std::vector<Envelope>& mailbox = s.mailboxes[0];
    if (mailbox.empty()) return 0;
    s.queue.clear();
    s.head = 0;
    std::swap(s.queue, mailbox);
    for (Envelope& e : s.queue) e.key_trig = next_seq_++;
    ++generations_;
    return s.queue.size();
  }
  // Superstep barrier: k-way merge of every (src, dst) mailbox by the
  // canonical send-order key. Each mailbox is key-sorted (appends happen in
  // send order), so the merge emits the exact global send order of the
  // previous generation; sequence numbers are assigned in that order and
  // envelopes distributed to their destination shards, whose queues end up
  // sequence-sorted. Consumed buffers are recycled in place (cleared, not
  // freed), so steady-state generations reuse envelope storage.
  merge_sources_.clear();
  const bool lossy = injector_ != nullptr && injector_->plan().lossy();
  size_t total = 0;
  for (RouterShard& s : shards_) {
    s.queue.clear();
    s.head = 0;
    // Lossy mode: previously dropped envelopes re-enter this merge. They
    // are moved aside first so a repeat drop appends to an empty `retry`
    // instead of the buffer being iterated.
    if (!s.retry.empty()) {
      std::swap(s.retry, s.retry_scratch);
      merge_sources_.push_back(MergeSource{&s.retry_scratch, 0, true});
      total += s.retry_scratch.size();
    }
    for (std::vector<Envelope>& mailbox : s.mailboxes) {
      if (!mailbox.empty()) {
        merge_sources_.push_back(MergeSource{&mailbox, 0, false});
        total += mailbox.size();
      }
    }
  }
  if (total == 0) return 0;
  ++generations_;
  while (true) {
    MergeSource* best = nullptr;
    for (MergeSource& src : merge_sources_) {
      if (src.next >= src.mailbox->size()) continue;
      if (best == nullptr) {
        best = &src;
        continue;
      }
      const Envelope& a = (*src.mailbox)[src.next];
      const Envelope& b = (*best->mailbox)[best->next];
      if (a.key_trig < b.key_trig ||
          (a.key_trig == b.key_trig && a.key_sub < b.key_sub)) {
        best = &src;
      }
    }
    if (best == nullptr) break;
    Envelope& env = (*best->mailbox)[best->next++];
    const size_t dst_shard = static_cast<size_t>(ShardOf(env.dst));
    bool duplicate = false;
    if (lossy && ShardOf(env.src) != static_cast<int>(dst_shard)) {
      // Decisions key on the envelope's pre-merge stamp, which uniquely
      // identifies the send, so a retried envelope draws a fresh coin per
      // attempt while a given (plan, workload) replays exactly.
      if (injector_->ShouldDropLink(env.key_trig, env.key_sub,
                                    env.attempts)) {
        NetworkStats& st =
            shards_[static_cast<size_t>(ShardOf(env.src))]
                .stats[static_cast<size_t>(NamespaceOf(env.port))];
        ++st.link_dropped;
        Envelope dropped = std::move(env);
        ++dropped.attempts;  // Keeps its ordering key for the next merge.
        shards_[dst_shard].retry.push_back(std::move(dropped));
        continue;  // No sequence number consumed.
      }
      if (best->is_retry) {
        ++shards_[static_cast<size_t>(ShardOf(env.src))]
              .stats[static_cast<size_t>(NamespaceOf(env.port))]
              .link_retried;
      }
      duplicate = injector_->ShouldDuplicateLink(env.key_trig, env.key_sub);
    }
    if (duplicate) {
      // The duplicate is real wire traffic: charged like any send, delivered
      // right after the original with its own sequence number. Fixpoints are
      // insensitive to it (re-derivations are absorbed, kills are idempotent).
      Envelope copy(env.src, env.dst, env.port, Update(env.update));
      ChargeSend(copy.src, copy.dst, copy.port, copy.update);
      ++shards_[static_cast<size_t>(ShardOf(env.src))]
            .stats[static_cast<size_t>(NamespaceOf(env.port))]
            .link_duplicated;
      env.key_trig = next_seq_++;
      shards_[dst_shard].queue.push_back(std::move(env));
      copy.key_trig = next_seq_++;
      shards_[dst_shard].queue.push_back(std::move(copy));
      continue;
    }
    env.key_trig = next_seq_++;  // Now the envelope's own sequence number.
    shards_[dst_shard].queue.push_back(std::move(env));
  }
  for (RouterShard& s : shards_) {
    for (std::vector<Envelope>& mailbox : s.mailboxes) mailbox.clear();
    s.retry_scratch.clear();
  }
  return total;
}

void Router::DeliverRun(RouterShard& shard, size_t start, size_t end) {
  size_t n = end - start;
  shard.head = end;
  shard.delivered += n;
  shard.cur_trig = shard.queue[start].key_trig;
  shard.cur_sub = 0;
  shard.last_seq = shard.queue[end - 1].key_trig;
  size_t run_ns = static_cast<size_t>(NamespaceOf(shard.queue[start].port));
  shard.delivered_by_ns[run_ns] += n;
  ++shard.stats[run_ns].batches;
  // Handlers may Send during dispatch; those enqueue into mailboxes, so the
  // run we are pointing into cannot move under us.
  RECNET_CHECK(batch_handler_ != nullptr);
  batch_handler_(&shard.queue[start], n);
  // Scavenge delivered kill-list buffers into the shard's pool: the
  // envelopes are dead weight until the next barrier clears the queue, and
  // recycling them lets steady-state kill routing allocate nothing.
  for (size_t i = start; i < end; ++i) {
    Update& u = shard.queue[i].update;
    if (u.type == UpdateType::kKill && u.killed.capacity() != 0 &&
        shard.kill_pool.size() < kMaxKillPool) {
      u.killed.clear();
      shard.kill_pool.push_back(std::move(u.killed));
    }
  }
}

size_t Router::RunEnd(const RouterShard& shard, size_t start,
                      uint64_t cutoff) const {
  size_t end = start + 1;
  const Envelope& first = shard.queue[start];
  while (end < shard.queue.size()) {
    const Envelope& e = shard.queue[end];
    // Runs extend only over globally *consecutive* sequence numbers: that
    // makes run boundaries (and thus send-ordering keys) independent of the
    // shard count — a gap means another shard owns the message in between.
    if (e.key_trig != shard.queue[end - 1].key_trig + 1 ||
        e.key_trig >= cutoff || e.dst != first.dst || e.port != first.port) {
      break;
    }
    ++end;
  }
  return end;
}

void Router::DrainShardQueue(
    int shard_id, uint64_t cutoff,
    const std::chrono::steady_clock::time_point* deadline,
    std::atomic<bool>* stop) {
  tls_shard_ = shard_id;
  // Bind this worker to its private BDD cache/scratch slot for the
  // duration of the drain (the engine sized the slot array to the shard
  // count before spawning workers). The interleaved fallback keeps slot 0:
  // it runs all shards on one thread, so sharing a slot is race-free.
  bdd::Manager::SetThreadWorkerSlot(shard_id);
  RouterShard& shard = shards_[static_cast<size_t>(shard_id)];
  uint64_t since_check = 0;
  while (shard.head < shard.queue.size()) {
    if (stop->load(std::memory_order_relaxed)) break;
    size_t start = shard.head;
    if (shard.queue[start].key_trig >= cutoff) break;
    size_t end = RunEnd(shard, start, cutoff);
    DeliverRun(shard, start, end);
    if (deadline != nullptr && (since_check += end - start) >= 32) {
      since_check = 0;
      if (std::chrono::steady_clock::now() > *deadline) {
        stop->store(true, std::memory_order_relaxed);
        break;
      }
    }
  }
  bdd::Manager::SetThreadWorkerSlot(0);
  tls_shard_ = 0;
}

void Router::DrainInterleaved(
    uint64_t cutoff, const std::chrono::steady_clock::time_point* deadline,
    std::atomic<bool>* stop) {
  // Deliver runs in global sequence order across all shard queues. This is
  // the reference schedule: the parallel drain is bit-identical to it
  // because per-node state is only ever touched from the owning shard.
  uint64_t since_check = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    int best = -1;
    uint64_t best_seq = cutoff;
    for (int i = 0; i < num_shards(); ++i) {
      const RouterShard& s = shards_[static_cast<size_t>(i)];
      if (s.head < s.queue.size() && s.queue[s.head].key_trig < best_seq) {
        best = i;
        best_seq = s.queue[s.head].key_trig;
      }
    }
    if (best < 0) break;
    tls_shard_ = best;
    RouterShard& shard = shards_[static_cast<size_t>(best)];
    size_t start = shard.head;
    size_t end = RunEnd(shard, start, cutoff);
    DeliverRun(shard, start, end);
    tls_shard_ = 0;
    if (deadline != nullptr && (since_check += end - start) >= 32) {
      since_check = 0;
      if (std::chrono::steady_clock::now() > *deadline) {
        stop->store(true, std::memory_order_relaxed);
        break;
      }
    }
  }
}

void Router::SyncExternalContext() {
  uint64_t max_seq = 0;
  const RouterShard* owner = nullptr;
  for (const RouterShard& s : shards_) {
    if (s.last_seq > max_seq) {
      max_seq = s.last_seq;
      owner = &s;
    }
  }
  if (owner != nullptr && max_seq > ext_trig_) {
    // External sends must order after every handler send. If the last
    // delivered run *started* at max_seq its handler subs share that trig,
    // so continue the counter; otherwise trig max_seq is fresh.
    ext_trig_ = max_seq;
    ext_sub_ = owner->cur_trig == max_seq ? owner->cur_sub : 0;
  }
}

Router::StepResult Router::ProcessGeneration(
    uint64_t max_n, bool parallel,
    const std::chrono::steady_clock::time_point* deadline) {
  StepResult res;
  if (max_n == 0) return res;
  PrepareGeneration();
  uint64_t frontier = UINT64_MAX;
  size_t queued = 0;
  int busy = 0;
  for (const RouterShard& s : shards_) {
    if (s.head >= s.queue.size()) continue;
    frontier = std::min(frontier, s.queue[s.head].key_trig);
    queued += s.queued();
    ++busy;
  }
  if (queued == 0) return res;
  uint64_t cutoff =
      max_n >= UINT64_MAX - frontier ? UINT64_MAX : frontier + max_n;
  uint64_t before = delivered();
  std::atomic<bool> stop{false};
  draining_ = true;
  // One OS thread per *hardware* thread, not per shard: worker w drains
  // shard queues w, w+width, ... back to back. The shard queues of one
  // generation are mutually independent (per-node state is only ever
  // touched from the owning shard), so any shard-to-thread assignment
  // yields the same result; clamping to the machine's parallelism avoids
  // paying context-switch and cold-cache costs for oversubscribed workers.
  // On a single hardware thread the interleaved drain delivers the
  // identical schedule with no spawn at all.
  const int width = std::min(busy, ParallelWidth());
  // A forced width (test hook) also bypasses the spawn-amortization
  // cutover: the point of forcing is to run the real threaded path on
  // workloads whose generations are otherwise too small to warrant it.
  const bool forced =
      g_parallel_width_override.load(std::memory_order_relaxed) > 0;
  if (parallel && width > 1 && (forced || queued >= kParallelCutover)) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(width - 1));
    for (int w = 1; w < width; ++w) {
      workers.emplace_back([this, w, width, cutoff, deadline, &stop] {
        for (int i = w; i < num_shards(); i += width) {
          DrainShardQueue(i, cutoff, deadline, &stop);
        }
      });
    }
    for (int i = 0; i < num_shards(); i += width) {
      DrainShardQueue(i, cutoff, deadline, &stop);
    }
    for (std::thread& w : workers) w.join();
  } else {
    DrainInterleaved(cutoff, deadline, &stop);
  }
  draining_ = false;
  SyncExternalContext();
  res.delivered = delivered() - before;
  res.deadline_exceeded = stop.load(std::memory_order_relaxed);
  return res;
}

bool Router::Step() { return StepBatch(1) == 1; }

size_t Router::StepBatch(size_t max_n) {
  RECNET_CHECK_EQ(num_shards(), 1);
  if (max_n == 0) return 0;
  PrepareGeneration();
  RouterShard& shard = shards_[0];
  if (shard.head >= shard.queue.size()) return 0;
  size_t start = shard.head;
  size_t end = start + 1;
  // Queue adjacency and consecutive sequence numbers coincide on a single
  // shard; clip the run at max_n exactly like the classic router.
  LogicalNode dst = shard.queue[start].dst;
  int port = shard.queue[start].port;
  size_t limit = std::min(shard.queue.size(), start + max_n);
  while (end < limit && shard.queue[end].dst == dst &&
         shard.queue[end].port == port) {
    ++end;
  }
  draining_ = true;
  DeliverRun(shard, start, end);
  draining_ = false;
  SyncExternalContext();
  return end - start;
}

bool Router::RunUntilQuiescent(uint64_t max_messages) {
  RECNET_CHECK_EQ(num_shards(), 1);
  uint64_t done = 0;
  while (pending() > 0) {
    if (done >= max_messages) {
      AbortRun();
      return false;
    }
    done += StepBatch(static_cast<size_t>(max_messages - done));
  }
  return true;
}

void Router::UnchargeSend(const Envelope& env) {
  NetworkStats& s =
      shards_[static_cast<size_t>(ShardOf(env.src))]
          .stats[static_cast<size_t>(NamespaceOf(env.port))];
  ++s.dropped_messages;
  if (PhysicalOf(env.src) == PhysicalOf(env.dst)) {
    --s.local_messages;
    return;
  }
  size_t wire = env.update.WireSizeBytes();
  --s.messages;
  s.bytes -= wire;
  s.per_peer_bytes[static_cast<size_t>(PhysicalOf(env.src))] -= wire;
  switch (env.update.type) {
    case UpdateType::kInsert:
      --s.insert_messages;
      s.prov_bytes -= env.update.pv.WireSizeBytes();
      --s.prov_samples;
      break;
    case UpdateType::kDelete:
      --s.delete_messages;
      break;
    case UpdateType::kKill:
      --s.kill_messages;
      break;
  }
}

void Router::PurgeNamespace(int ns) {
  auto in_ns = [this, ns](const Envelope& env) {
    return NamespaceOf(env.port) == ns;
  };
  for (RouterShard& s : shards_) {
    for (size_t i = s.head; i < s.queue.size(); ++i) {
      if (in_ns(s.queue[i])) UnchargeSend(s.queue[i]);
    }
    s.queue.erase(
        std::remove_if(s.queue.begin() + static_cast<std::ptrdiff_t>(s.head),
                       s.queue.end(), in_ns),
        s.queue.end());
    for (std::vector<Envelope>& mailbox : s.mailboxes) {
      for (const Envelope& env : mailbox) {
        if (in_ns(env)) UnchargeSend(env);
      }
      mailbox.erase(std::remove_if(mailbox.begin(), mailbox.end(), in_ns),
                    mailbox.end());
    }
    for (const Envelope& env : s.retry) {
      if (in_ns(env)) UnchargeSend(env);
    }
    s.retry.erase(std::remove_if(s.retry.begin(), s.retry.end(), in_ns),
                  s.retry.end());
    // Retired envelopes (the consumed prefix of the last generation) are
    // normally recycled at the next PrepareGeneration; a detaching
    // namespace must not leave its provenance handles alive in them, so
    // drop fully consumed queues now.
    if (s.head == s.queue.size()) {
      s.queue.clear();
      s.head = 0;
    }
  }
}

void Router::AbortNamespace(int ns) {
  PurgeNamespace(ns);
  ++shards_[0].stats[static_cast<size_t>(ns)].aborted_runs;
}

void Router::AbortRun(int ns) {
  for (RouterShard& s : shards_) {
    for (size_t i = s.head; i < s.queue.size(); ++i) UnchargeSend(s.queue[i]);
    s.queue.clear();
    s.head = 0;
    for (std::vector<Envelope>& mailbox : s.mailboxes) {
      for (const Envelope& env : mailbox) UnchargeSend(env);
      mailbox.clear();
    }
    for (const Envelope& env : s.retry) UnchargeSend(env);
    s.retry.clear();
  }
  ++shards_[0].stats[static_cast<size_t>(ns)].aborted_runs;
}

Router::FlowState Router::SaveFlowState() const {
  FlowState fs;
  fs.next_seq = next_seq_;
  fs.ext_trig = ext_trig_;
  fs.ext_sub = ext_sub_;
  fs.delivered = delivered();
  return fs;
}

void Router::RestoreFlowState(const FlowState& fs) {
  next_seq_ = fs.next_seq;
  ext_trig_ = fs.ext_trig;
  ext_sub_ = fs.ext_sub;
  shards_[0].delivered = fs.delivered;
}

void Router::RestoreDeliveredByNs(int ns, uint64_t delivered) {
  shards_[0].delivered_by_ns[static_cast<size_t>(ns)] = delivered;
}

void Router::ForEachPendingEnvelope(
    const std::function<void(EnvelopeHome, const Envelope&)>& fn) const {
  for (const RouterShard& s : shards_) {
    for (size_t i = s.head; i < s.queue.size(); ++i) {
      fn(EnvelopeHome::kQueue, s.queue[i]);
    }
    for (const std::vector<Envelope>& mailbox : s.mailboxes) {
      for (const Envelope& env : mailbox) fn(EnvelopeHome::kMailbox, env);
    }
    for (const Envelope& env : s.retry) fn(EnvelopeHome::kRetry, env);
  }
}

void Router::RestoreEnvelope(EnvelopeHome home, Envelope&& env) {
  switch (home) {
    case EnvelopeHome::kQueue:
      // Queue tails are captured per shard in sequence order and the queue
      // is keyed by the destination shard, so append order is preserved.
      shards_[static_cast<size_t>(ShardOf(env.dst))].queue.push_back(
          std::move(env));
      break;
    case EnvelopeHome::kMailbox:
      shards_[static_cast<size_t>(ShardOf(env.src))]
          .mailboxes[static_cast<size_t>(ShardOf(env.dst))]
          .push_back(std::move(env));
      break;
    case EnvelopeHome::kRetry:
      shards_[static_cast<size_t>(ShardOf(env.dst))].retry.push_back(
          std::move(env));
      break;
  }
}

}  // namespace recnet
