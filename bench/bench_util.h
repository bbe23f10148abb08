#ifndef RECNET_BENCH_BENCH_UTIL_H_
#define RECNET_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "engine/runtime_base.h"
#include "fault/fault.h"
#include "topology/topology.h"

namespace recnet {
namespace bench {

// Experiment scale. The default runs a reduced topology so the whole bench
// suite completes in minutes on one core; RECNET_PAPER_SCALE=1 switches to
// the paper's 100-node / ~200-bidirectional-link GT-ITM default.
struct BenchEnv {
  bool paper_scale = false;
  uint64_t seed = 1;
};

BenchEnv GetBenchEnv();

// Command-line options shared by the figure benches.
struct BenchArgs {
  // --json=PATH: after the text tables, write the figure's cells as a
  // machine-readable JSON document (see FigurePrinter::WriteJson).
  std::string json_path;
  // --shards=N: router shards for the main figure cells (default 1, the
  // sequential drain). Results and traffic counters are bit-identical for
  // any shard count; wall times are what changes.
  int shards = 1;
  // --faults=SPEC: seeded fault plan for the run (see fault::ParseFaultSpec,
  // e.g. "seed=7,drop=0.01,dup=0.005"). Benches with a lossy mode run their
  // convergence-under-loss workload when the plan has drop/dup rates; the
  // parsed plan also lands in the JSON meta block so a trajectory records
  // the faults it ran under. A malformed spec aborts with the parse error
  // (exit code 2).
  fault::FaultPlan faults;
  // The spec string as given (empty = no --faults), for the JSON meta.
  std::string faults_spec;
  // --ckpt-save=PATH / --ckpt-load=PATH: run the bench's checkpoint
  // workload instead of the figure cells — save runs the first half of the
  // workload, snapshots the session to PATH, and finishes; load restores
  // PATH into a fresh process and runs the same second half. Both print a
  // `CKPT-DIGEST <hex>` line over the final counters and view contents; CI
  // diffs the two lines to pin cross-process snapshot determinism.
  std::string ckpt_save;
  std::string ckpt_load;
};

// Parses argv; unknown flags abort with a usage message (exit code 2).
BenchArgs ParseArgs(int argc, char** argv);

// The figure-7/8/13/14 base topology at the chosen scale.
Topology DefaultTopology(bool dense, const BenchEnv& env);

// A named maintenance strategy (series in the figures).
struct Strategy {
  std::string name;
  ProvMode prov;
  ShipMode ship;
};

// The five series of Figures 7-8.
std::vector<Strategy> AllStrategies();
// DRed + the two absorption variants (Figures 9-10).
std::vector<Strategy> RegionStrategies();

RuntimeOptions MakeOptions(const Strategy& strategy, uint64_t budget);

// Collects one RunMetrics per (series, x) cell and prints the figure's four
// panels — (a) per-tuple provenance overhead (B), (b) communication
// overhead (MB), (c) state within operators (MB), (d) convergence time (s)
// — as aligned text tables matching the paper's layout.
class FigurePrinter {
 public:
  FigurePrinter(std::string figure, std::string title, std::string x_label,
                std::vector<std::string> series);

  void Add(const std::string& series, double x, const RunMetrics& m);

  // Records one shard-sweep cell: the same (series, x) workload re-run at
  // `shards` router shards. The sweep documents the sharded drain's
  // determinism contract in the trajectory JSON — messages/kill_messages
  // must be bit-identical down the sweep — plus the wall-clock effect of
  // parallel drains.
  void AddShardCell(const std::string& series, double x, int shards,
                    const RunMetrics& m);

  // Records one convergence-under-loss cell: the (series) full workload
  // re-run under the seeded lossy-link plan `spec` at `shards` shards. The
  // trajectory pins the drop/retry/duplicate counters (fully determined by
  // the plan seed and the workload), giving the fault model a committed
  // baseline to diff across PRs.
  void AddLossyCell(const std::string& series, const std::string& spec,
                    int shards, const RunMetrics& m);

  // Shard count of the main figure cells (recorded in the JSON).
  void set_shards(int shards) { shards_ = shards; }

  // Whether this run exercised a checkpoint/restore cycle (recorded in the
  // JSON's run metadata).
  void set_checkpoint(bool on) { checkpoint_ = on; }

  // Fault spec the run executed under (recorded in the JSON's run metadata;
  // empty = fault-free).
  void set_faults(const std::string& spec) { faults_ = spec; }

  void PrintAll() const;

  // Writes every recorded cell as JSON: figure/title/x_label, the series
  // and x-value lists, one record per (series, x) with the four panel
  // metrics plus traffic counters, and the wall time since construction.
  // Benchmark trajectories (BENCH_*.json) are diffed across PRs, so the
  // format is stable and append-only. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  void PrintPanel(const std::string& panel_title,
                  double (*extract)(const RunMetrics&),
                  const char* format) const;

  struct ShardCell {
    std::string series;
    double x;
    int shards;
    RunMetrics metrics;
  };

  struct LossyCell {
    std::string series;
    std::string spec;
    int shards;
    RunMetrics metrics;
  };

  std::string figure_;
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_;
  std::vector<double> xs_;
  std::map<std::pair<std::string, double>, RunMetrics> cells_;
  std::vector<ShardCell> shard_cells_;
  std::vector<LossyCell> lossy_cells_;
  int shards_ = 1;
  bool checkpoint_ = false;
  std::string faults_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bench
}  // namespace recnet

#endif  // RECNET_BENCH_BENCH_UTIL_H_
