#ifndef RECNET_ENGINE_VIEWS_H_
#define RECNET_ENGINE_VIEWS_H_

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/reachable_runtime.h"
#include "engine/soft_state.h"

namespace recnet {

// ---------------------------------------------------------------------------
// Typed per-query view wrappers. These are thin internals kept for tests and
// benchmarks that pin one runtime; the public session API is recnet::Engine
// (engine/engine.h), which compiles Datalog source and dispatches onto the
// same runtimes through the runtime registry.
//
// Each view wraps a distributed runtime (simulated network of per-partition
// query processors). The pattern is:
//
//   recnet::ReachabilityView view(
//       std::make_shared<recnet::Substrate>(num_nodes,
//                                           recnet::SubstrateOptions{}),
//       num_nodes, options);
//   view.InsertLink(a, b);
//   ...
//   RECNET_CHECK(view.Apply().ok());     // run to fixpoint
//   view.IsReachable(a, c);
//   view.DeleteLink(a, b);
//   RECNET_CHECK(view.Apply().ok());     // incremental maintenance
//
// Options select the maintenance strategy (absorption provenance, relative
// provenance, or the DRed baseline) and the MinShip policy.
// ---------------------------------------------------------------------------

// Network reachability (paper Query 1).
class ReachabilityView {
 public:
  ReachabilityView(std::shared_ptr<Substrate> substrate, int num_nodes,
                   const RuntimeOptions& options)
      : rt_(std::move(substrate), num_nodes, options) {}

  void InsertLink(int src, int dst) { rt_.InsertLink(src, dst); }
  void DeleteLink(int src, int dst) { rt_.DeleteLink(src, dst); }

  // Propagates pending updates to fixpoint. Fails with ResourceExhausted if
  // the message budget was exceeded.
  Status Apply();

  bool IsReachable(int src, int dst) const {
    return rt_.IsReachable(src, dst);
  }
  std::set<int> ReachableFrom(int src) const {
    return rt_.ReachableFrom(src);
  }

  // Diagnostics: one witness set of links that supports reachable(src, dst)
  // (absorption mode only) — the paper's "forensic analysis" direction.
  std::optional<std::vector<std::pair<int, int>>> Why(int src, int dst) const;

  RunMetrics Metrics() const { return rt_.Metrics(); }
  ReachableRuntime& runtime() { return rt_; }

 private:
  ReachableRuntime rt_;
};

// Reachability over soft-state links (paper §3.1): every link carries a
// time-to-live; AdvanceTime() expires overdue links, processing each expiry
// as an ordinary incremental deletion. Re-inserting a live link renews it.
class SoftStateReachabilityView {
 public:
  SoftStateReachabilityView(std::shared_ptr<Substrate> substrate,
                            int num_nodes, const RuntimeOptions& options)
      : rt_(std::move(substrate), num_nodes, options) {}

  // Inserts link(src, dst) expiring `ttl` time units from now (renewal if
  // the link is already alive).
  void InsertLink(int src, int dst, double ttl);
  // Explicit deletion before expiry.
  void DeleteLink(int src, int dst);
  // Advances the clock, expiring overdue links.
  void AdvanceTime(double t);

  Status Apply();

  double now() const { return clock_.now(); }
  size_t live_links() const { return clock_.live(); }
  bool IsReachable(int src, int dst) const {
    return rt_.IsReachable(src, dst);
  }
  std::set<int> ReachableFrom(int src) const {
    return rt_.ReachableFrom(src);
  }
  RunMetrics Metrics() const { return rt_.Metrics(); }

 private:
  ReachableRuntime rt_;
  SoftStateClock clock_;
};

}  // namespace recnet

#endif  // RECNET_ENGINE_VIEWS_H_
