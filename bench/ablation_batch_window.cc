// Ablation (paper §5's batching-interval discussion): sweeping MinShip's
// eager batching window between "ship every derivation" (W=1) and lazy
// (W=inf) trades bandwidth against deletion-time work. "By changing the
// batching interval or conditions, we can adjust how many alternate
// derivations are propagated through the query plan."

#include <cstdio>

#include "bench_util.h"
#include "engine/reachable_runtime.h"
#include "topology/workload.h"

using namespace recnet;
using namespace recnet::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchEnv env = GetBenchEnv();
  Topology topo = DefaultTopology(/*dense=*/true, env);
  std::printf("MinShip batching-window ablation: %d nodes, %zu link tuples; "
              "insert all + delete 20%%\n",
              topo.num_nodes, topo.num_link_tuples());
  std::printf("%-12s %14s %14s %14s %14s\n", "window", "insert MB",
              "delete MB", "insert s", "delete s");

  // JSON trajectory: phases as series, batching window as x (0 = lazy).
  FigurePrinter fig("Ablation", "MinShip batching window", "window",
                    {"insert", "delete"});

  auto run = [&](ShipMode ship, size_t window, const char* label) {
    RuntimeOptions opts;
    opts.prov = ProvMode::kAbsorption;
    opts.ship = ship;
    opts.batch_window = window;
    opts.message_budget = 50'000'000;
    opts.time_budget_s = 30;
    ReachableRuntime rt(
        std::make_shared<Substrate>(topo.num_nodes, SubstrateOptions{}),
        topo.num_nodes, opts);
    for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
      rt.InsertLink(l.src, l.dst);
    }
    rt.Run();
    RunMetrics insert = rt.Metrics();
    rt.ResetMetrics();
    for (const LinkTuple& l : DeletionSequence(topo, 0.2, env.seed)) {
      rt.DeleteLink(l.src, l.dst);
      if (!rt.Run()) break;
    }
    RunMetrics del = rt.Metrics();
    std::printf("%-12s %14.3f %14.3f %14.3f %14.3f\n", label, insert.comm_mb,
                del.comm_mb, insert.wall_seconds, del.wall_seconds);
    fig.Add("insert", static_cast<double>(window), insert);
    fig.Add("delete", static_cast<double>(window), del);
  };

  run(ShipMode::kEager, 128, "eager W=128");
  run(ShipMode::kEager, 256, "eager W=256");
  run(ShipMode::kEager, 512, "eager W=512");
  run(ShipMode::kEager, 2048, "eager W=2048");
  run(ShipMode::kLazy, 0, "lazy (W=inf)");
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
