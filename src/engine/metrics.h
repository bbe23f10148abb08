#ifndef RECNET_ENGINE_METRICS_H_
#define RECNET_ENGINE_METRICS_H_

#include <cstdint>
#include <string>

#include "net/router.h"

namespace recnet {

// Metrics of one experiment run, matching the four panels that every figure
// in the paper's evaluation reports (Section 7.1).
struct RunMetrics {
  // (a) Per-tuple provenance overhead, bytes.
  double per_tuple_prov_bytes = 0;
  // (b) Communication overhead, MB (cross-physical-peer traffic).
  double comm_mb = 0;
  // (c) State within operators, MB.
  double state_mb = 0;
  // (d) Convergence time, seconds. Wall-clock of the single-threaded
  // simulation (the dominating compute cost), plus a simulated
  // parallel-time estimate when physical peers vary (Figure 13).
  double wall_seconds = 0;
  double sim_seconds = 0;

  uint64_t messages = 0;
  uint64_t kill_messages = 0;
  // Delivery batches dispatched (same-(dst, port) runs).
  uint64_t batches = 0;
  // Budget-exhaustion record: how many runs were cut off before quiescence
  // and how many queued messages were discarded when that happened. A
  // non-converged figure cell ("did not complete") always has
  // aborted_runs > 0, so the abort is explicit rather than inferred.
  uint64_t aborted_runs = 0;
  uint64_t dropped_messages = 0;
  // Lossy-link workload counters (zero on a lossless run): shard-boundary
  // envelopes the seeded fault injector dropped / duplicated, and how many
  // of the drops were later retried to delivery. Note the distinction from
  // dropped_messages above, which counts *budget-abort* discards.
  uint64_t link_dropped = 0;
  uint64_t link_duplicated = 0;
  uint64_t link_retried = 0;
  // Crash recoveries the session performed while (re-)running this view's
  // updates (0 outside the fault-tolerant Apply path).
  uint64_t recoveries = 0;
  bool converged = true;

  // Concurrent BDD manager observability (manager-wide — co-resident views
  // share one manager, so these are substrate totals, not per-view):
  // contended first acquisitions of a unique-table stripe lock, op-cache
  // hit rate across all worker slots, and node-store segments allocated.
  // Transient diagnostics: sampled live from the manager, deliberately NOT
  // serialized into checkpoint metrics.
  uint64_t bdd_stripe_contention = 0;
  double bdd_cache_hit_rate = 0;
  uint64_t bdd_store_segments = 0;
  // Eager→lazy absorption demotions across this view's MinShips (see
  // kEagerDemoteWidth). Like the bdd_* fields above, a live diagnostic
  // that is not serialized into checkpoint metrics.
  uint64_t ship_demotions = 0;

  std::string ToString() const;
};

// Mean per-message latency of the simulated cluster, in seconds (the
// runtimes' convergence estimates use it).
inline constexpr double kPerMsgLatencyS = 0.0005;

// Derives a parallel-convergence estimate from traffic accounting: the
// single-threaded work divides across `num_physical` peers, while every
// cross-peer message adds latency (`per_msg_latency_s`) amortized across
// peers that communicate concurrently.
double EstimateSimSeconds(double wall_seconds, uint64_t cross_messages,
                          int num_physical, double per_msg_latency_s);

}  // namespace recnet

#endif  // RECNET_ENGINE_METRICS_H_
