// Workload generator of the session churn benchmark: every workload is a
// deterministic function of its name and seed, expressed as plain fact
// changes, reads and checkpoints that the runner replays through the public
// Session / View API.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "engine/session.h"
#include "topology/sensor_grid.h"
#include "topology/topology.h"

namespace perfbench {

// One base-fact change, keyed by relation name.
struct Change {
  enum Kind { kInsert, kDelete, kInsertTtl };
  Kind kind = kInsert;
  std::string relation;
  recnet::Tuple fact;
  double ttl = 0;  // kInsertTtl only.
};

// One read against a view handle.
struct Read {
  enum Kind { kContains, kLookup, kScan };
  Kind kind = kContains;
  size_t view = 0;   // Index into Workload::programs.
  std::string name;  // View relation read.
  recnet::Tuple key;  // Unused for kScan.
};

// One closed-loop client round: ingest the changes, optionally advance the
// soft-state clock, Apply, then read and optionally checkpoint.
struct Step {
  std::vector<Change> changes;
  double advance_to = -1;  // < 0: no AdvanceTime call.
  std::vector<Read> reads;
  bool checkpoint = false;
  // Compare every view with the oracle after this round (untimed).
  bool oracle = false;
};

// One session lifetime: set-up over `initial` (a single converged Apply),
// then the timed rounds.
struct Episode {
  std::vector<Change> initial;
  std::vector<Step> steps;
};

enum class ViewKind { kReach, kPath, kRegion };

struct Program {
  ViewKind kind = ViewKind::kReach;
  std::string source;
  recnet::EngineOptions options;
};

struct Workload {
  std::string name;
  recnet::SessionOptions session;
  std::vector<Program> programs;
  // One pass: episodes run in order, each on a fresh session. The runner
  // repeats whole passes, so every run measures the same mix of rounds.
  std::vector<Episode> pass;
  // Passes every run makes; tail percentiles are taken at the quantile that
  // leaves 10 samples beyond it in this many passes.
  int min_passes = 1;
  // Mixed-batch probe (reach-churn workloads only; empty otherwise): a
  // fresh session over `probe.initial`, whose rounds each carry one link
  // failure and one recovery in a single Apply.
  Episode probe;
  int num_nodes = 0;
  recnet::SensorField field;  // Region views only.
};

// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

// Builds `name` for `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Canonical text form of every generated input (programs, facts, rounds,
// probe), for checking that a seed reproduces its stream byte for byte.
std::string DumpStream(const Workload& w);

// The live base facts a session should hold, tracked by replaying the same
// changes: the input of the centralized oracles.
class FactModel {
 public:
  void Apply(const Change& c);
  // Expires soft-state facts whose deadline is <= t (SoftStateClock rule).
  void AdvanceTo(double t);

  const std::set<std::pair<int, int>>& links() const { return links_; }
  const std::map<std::pair<int, int>, double>& cost_links() const {
    return cost_links_;
  }
  std::vector<bool> Triggered(int num_sensors) const;

 private:
  double now_ = 0;
  std::set<std::pair<int, int>> links_;
  std::map<std::pair<int, int>, double> cost_links_;
  std::map<int, double> trigger_deadline_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
