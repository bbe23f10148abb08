// Figure 7: `reachable` view computation as insertions are performed.
// Series: DRed, Relative Eager/Lazy, Absorption Eager/Lazy.
// X axis: insertion ratio (fraction of link tuples inserted).
//
// The workload executes through recnet::Engine: the query is compiled from
// the paper's Datalog text, so this bench also measures the facade path.

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "topology/workload.h"

using namespace recnet;
using namespace recnet::bench;

namespace {

constexpr char kQuery1[] = R"(
  reachable(x,y) :- link(x,y).
  reachable(x,y) :- link(x,z), reachable(z,y).
)";

void DigestU64(uint64_t v, uint64_t* h) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ull;  // FNV-1a.
  }
}

void DigestDouble(double v, uint64_t* h) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  DigestU64(bits, h);
}

// One number over everything the resumed run observed: traffic counters,
// wire bytes, and the full converged view contents. Two processes that
// print the same digest walked the same trajectory.
uint64_t TrajectoryDigest(const View* view) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  RunMetrics m = view->Metrics();
  DigestU64(m.messages, &h);
  DigestU64(m.kill_messages, &h);
  DigestDouble(m.comm_mb, &h);
  auto rows = view->Scan("reachable");
  RECNET_CHECK(rows.ok());
  DigestU64(rows->size(), &h);
  for (const Tuple& t : rows.value()) {
    for (size_t i = 0; i < t.size(); ++i) {
      const Value& v = t.at(i);
      if (v.is_double()) {
        DigestDouble(v.AsDouble(), &h);
      } else if (v.is_int()) {
        DigestU64(static_cast<uint64_t>(v.AsInt()), &h);
      }
    }
  }
  return h;
}

// The --ckpt-save / --ckpt-load workload: the full-insert Absorption Lazy
// cell, split in half. Save runs the first half, checkpoints, then resumes;
// load restores the checkpoint in a fresh process and resumes identically.
// Both print `CKPT-DIGEST <hex>`; matching digests mean the restored
// session's trajectory is bit-identical to the uninterrupted one across a
// process boundary (CI diffs the two lines).
int RunCheckpointMode(const BenchArgs& args, const BenchEnv& env,
                      const Topology& topo) {
  const Strategy strategy{"Absorption Lazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const std::vector<LinkTuple> links = InsertionPrefix(topo, 1.0, env.seed);
  const size_t half = links.size() / 2;

  SessionOptions session_options;
  session_options.num_nodes = topo.num_nodes;
  session_options.num_physical = 12;
  session_options.shards = args.shards;
  Session session(session_options);

  const bool saving = !args.ckpt_save.empty();
  const std::string& path = saving ? args.ckpt_save : args.ckpt_load;
  View* view = nullptr;
  if (saving) {
    EngineOptions options;
    options.num_nodes = topo.num_nodes;
    options.runtime = MakeOptions(strategy, 30'000'000);
    auto added = session.AddProgram(kQuery1, options);
    if (!added.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   added.status().ToString().c_str());
      return 1;
    }
    view = added.value();
    for (size_t i = 0; i < half; ++i) {
      (void)session.Insert("link",
                           {double(links[i].src), double(links[i].dst)});
    }
    (void)session.Apply();
    Status st = session.Checkpoint(path);
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed after %zu/%zu links to %s\n", half,
                links.size(), path.c_str());
  } else {
    Status st = session.Restore(path);
    if (!st.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", st.ToString().c_str());
      return 1;
    }
    view = session.view(0);
    std::printf("restored %s at %zu/%zu links\n", path.c_str(), half,
                links.size());
  }

  // Resume: the second half of the insertion workload.
  for (size_t i = half; i < links.size(); ++i) {
    (void)session.Insert("link",
                         {double(links[i].src), double(links[i].dst)});
  }
  (void)session.Apply();
  std::printf("CKPT-DIGEST %016llx\n",
              static_cast<unsigned long long>(TrajectoryDigest(view)));
  return 0;
}

// Digest over the converged view contents only (no traffic counters): a
// lossy run retries dropped envelopes, so its message counts legitimately
// differ from a lossless run's — the contract is that the *fixpoint* is
// identical.
uint64_t FixpointDigest(const Engine* engine) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  auto rows = engine->Scan("reachable");
  RECNET_CHECK(rows.ok());
  DigestU64(rows->size(), &h);
  for (const Tuple& t : rows.value()) {
    for (size_t i = 0; i < t.size(); ++i) {
      const Value& v = t.at(i);
      if (v.is_double()) {
        DigestDouble(v.AsDouble(), &h);
      } else if (v.is_int()) {
        DigestU64(static_cast<uint64_t>(v.AsInt()), &h);
      }
    }
  }
  return h;
}

// The --faults workload: the full-insert Absorption Lazy cell run twice —
// once lossless, once under the seeded fault plan — and the converged view
// contents compared. Passing means the lossy drain (seeded drops,
// duplicates, bounded retry) converged to the same fixpoint; the printed
// counters show the plan actually exercised the loss paths.
int RunFaultMode(const BenchArgs& args, const BenchEnv& env,
                 const Topology& topo) {
  const Strategy strategy{"Absorption Lazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const int shards = args.shards;
  if (shards < 2) {
    std::fprintf(stderr,
                 "--faults link loss needs --shards>=2 (loss is injected on "
                 "shard-boundary links; at 1 shard the plan is inert)\n");
    return 2;
  }
  uint64_t digests[2];
  RunMetrics lossy_metrics;
  for (int lossy = 0; lossy < 2; ++lossy) {
    EngineOptions options;
    options.num_nodes = topo.num_nodes;
    options.runtime = MakeOptions(strategy, 30'000'000);
    SessionOptions deployment;
    deployment.shards = shards;
    if (lossy) deployment.faults = args.faults;
    auto engine = Engine::Compile(kQuery1, options, deployment);
    if (!engine.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
      (*engine)->Insert("link", {double(l.src), double(l.dst)});
    }
    Status st = (*engine)->Apply();
    RunMetrics m = (*engine)->Metrics();
    if (!st.ok() || !m.converged) {
      std::fprintf(stderr, "%s run did not converge: %s\n",
                   lossy ? "lossy" : "lossless", st.ToString().c_str());
      return 1;
    }
    digests[lossy] = FixpointDigest(engine->get());
    if (lossy) lossy_metrics = m;
  }
  std::printf("FAULT-RUN spec=%s shards=%d dropped=%llu retried=%llu "
              "duplicated=%llu\n",
              args.faults_spec.c_str(), shards,
              static_cast<unsigned long long>(lossy_metrics.link_dropped),
              static_cast<unsigned long long>(lossy_metrics.link_retried),
              static_cast<unsigned long long>(lossy_metrics.link_duplicated));
  std::printf("FAULT-DIGEST %016llx lossless\n",
              static_cast<unsigned long long>(digests[0]));
  std::printf("FAULT-DIGEST %016llx lossy\n",
              static_cast<unsigned long long>(digests[1]));
  if (digests[0] != digests[1]) {
    std::fprintf(stderr, "lossy fixpoint diverged from lossless baseline\n");
    return 1;
  }
  std::printf("lossy convergence OK: fixpoint matches lossless baseline\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchEnv env = GetBenchEnv();
  Topology topo = DefaultTopology(/*dense=*/true, env);
  if (!args.ckpt_save.empty() || !args.ckpt_load.empty()) {
    return RunCheckpointMode(args, env, topo);
  }
  if (!args.faults_spec.empty()) {
    return RunFaultMode(args, env, topo);
  }
  std::printf(
      "Figure 7 workload: transit-stub topology, %d nodes, %zu link tuples"
      "%s\n",
      topo.num_nodes, topo.num_link_tuples(),
      env.paper_scale ? " (paper scale)" : " (reduced scale; "
                                           "RECNET_PAPER_SCALE=1 for 100 "
                                           "nodes)");

  FigurePrinter fig("Figure 7", "reachable query, insertion workload",
                    "insertion ratio",
                    {"DRed", "Relative Eager", "Relative Lazy",
                     "Absorption Eager", "Absorption Lazy"});

  fig.set_shards(args.shards);
  for (const Strategy& strategy : AllStrategies()) {
    for (double ratio : {0.5, 0.75, 1.0}) {
      EngineOptions options;
      options.num_nodes = topo.num_nodes;
      options.runtime = MakeOptions(strategy, 30'000'000);
      SessionOptions deployment;
      deployment.shards = args.shards;
      auto engine = Engine::Compile(kQuery1, options, deployment);
      if (!engine.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     engine.status().ToString().c_str());
        return 1;
      }
      for (const LinkTuple& l : InsertionPrefix(topo, ratio, env.seed)) {
        (*engine)->Insert("link", {double(l.src), double(l.dst)});
      }
      (void)(*engine)->Apply();
      fig.Add(strategy.name, ratio, (*engine)->Metrics());
      std::fprintf(
          stderr, "  [fig7] %s ratio=%.2f done (%llu msgs)\n",
          strategy.name.c_str(), ratio,
          static_cast<unsigned long long>((*engine)->Metrics().messages));
    }
  }
  // Shard sweep (determinism contract): the full-insert workload re-run at
  // 1/2/4 router shards must produce bit-identical traffic counters; only
  // wall time may move. Recorded into the JSON for cross-PR diffing.
  std::printf("shard sweep (full insert):\n");
  for (const Strategy& strategy : AllStrategies()) {
    if (strategy.ship == ShipMode::kEager) continue;  // Time-capped cells.
    for (int shards : {1, 2, 4}) {
      EngineOptions options;
      options.num_nodes = topo.num_nodes;
      options.runtime = MakeOptions(strategy, 30'000'000);
      SessionOptions deployment;
      deployment.shards = shards;
      auto engine = Engine::Compile(kQuery1, options, deployment);
      if (!engine.ok()) return 1;
      for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
        (*engine)->Insert("link", {double(l.src), double(l.dst)});
      }
      (void)(*engine)->Apply();
      fig.AddShardCell(strategy.name, 1.0, shards, (*engine)->Metrics());
    }
  }

  // Lossy-link cell: the full-insert Absorption Lazy workload under a
  // pinned seeded drop/dup plan at 2 shards (loss is injected on
  // shard-boundary links, so 1 shard would make the plan inert). The
  // drop/retry/duplicate counters are deterministic given the seed, so the
  // recorded cell is a baseline the fault injector is diffed against.
  {
    static constexpr char kLossySpec[] = "seed=7,drop=0.05,dup=0.02";
    auto plan = fault::ParseFaultSpec(kLossySpec);
    RECNET_CHECK(plan.ok());
    const Strategy strategy{"Absorption Lazy", ProvMode::kAbsorption,
                            ShipMode::kLazy};
    EngineOptions options;
    options.num_nodes = topo.num_nodes;
    options.runtime = MakeOptions(strategy, 30'000'000);
    SessionOptions deployment;
    deployment.shards = 2;
    deployment.faults = plan.value();
    auto engine = Engine::Compile(kQuery1, options, deployment);
    if (!engine.ok()) return 1;
    for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
      (*engine)->Insert("link", {double(l.src), double(l.dst)});
    }
    (void)(*engine)->Apply();
    fig.AddLossyCell(strategy.name, kLossySpec, 2, (*engine)->Metrics());
  }

  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
