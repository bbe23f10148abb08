// Deterministic fault injection + crash recovery coverage. The contracts
// under test:
//  * FaultInjector decisions are pure functions of (seed, epoch, site,
//    keys) — two injectors with the same plan walk the same schedule, and
//    BumpEpoch re-randomizes the rate-based draws.
//  * An injected infrastructure fault (worker death / alloc failure) under
//    SessionOptions::recovery finishes with Scan results and per-view
//    traffic counters bit-identical to an uninterrupted run, for every
//    ProvMode x shard count.
//  * A torn Session::Checkpoint never touches the target file: a prior
//    snapshot there survives and stays restorable.
//  * The lossy shard-link mode (seeded drop/dup with bounded retry)
//    converges to the same fixpoint as a lossless run, with the loss
//    visible in the link_dropped/link_retried/link_duplicated counters.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/session.h"
#include "fault/fault.h"

namespace recnet {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::ParseFaultSpec;

// CI's fault-matrix job re-runs this suite under several fault seeds
// (RECNET_FAULT_SEED=<n>); the offset shifts every rate-based plan seed so
// the parity contracts are exercised against fresh fault schedules, not one
// hard-coded trajectory.
uint64_t FaultSeed(uint64_t base) {
  const char* s = std::getenv("RECNET_FAULT_SEED");
  return s == nullptr ? base : base + std::strtoull(s, nullptr, 10);
}

// --- Injector purity ---------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.seed = 42;
  plan.worker_death_rate = 0.3;
  plan.link_drop_rate = 0.3;
  plan.link_dup_rate = 0.3;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int gen = 0; gen < 64; ++gen) {
    a.TickGeneration();
    b.TickGeneration();
    EXPECT_EQ(a.ShouldKillWorker(nullptr), b.ShouldKillWorker(nullptr))
        << "gen " << gen;
  }
  for (uint64_t trig = 0; trig < 32; ++trig) {
    for (uint32_t sub = 0; sub < 4; ++sub) {
      EXPECT_EQ(a.ShouldDropLink(trig, sub, 0), b.ShouldDropLink(trig, sub, 0));
      EXPECT_EQ(a.ShouldDuplicateLink(trig, sub),
                b.ShouldDuplicateLink(trig, sub));
    }
  }
}

TEST(FaultInjectorTest, DecisionsAreRepeatable) {
  // No hidden state: asking the same question twice gives the same answer.
  FaultPlan plan;
  plan.seed = 7;
  plan.link_drop_rate = 0.5;
  FaultInjector inj(plan);
  for (uint64_t trig = 0; trig < 64; ++trig) {
    bool first = inj.ShouldDropLink(trig, 1, 2);
    EXPECT_EQ(inj.ShouldDropLink(trig, 1, 2), first);
  }
}

TEST(FaultInjectorTest, EpochRerandomizesRateDraws) {
  FaultPlan plan;
  plan.seed = 11;
  plan.worker_death_rate = 0.5;
  FaultInjector a(plan);
  FaultInjector b(plan);
  b.BumpEpoch();
  int differ = 0;
  for (int gen = 0; gen < 64; ++gen) {
    a.TickGeneration();
    b.TickGeneration();
    if (a.ShouldKillWorker(nullptr) != b.ShouldKillWorker(nullptr)) ++differ;
  }
  EXPECT_GT(differ, 0) << "epoch bump left the death schedule unchanged";
}

TEST(FaultInjectorTest, OneShotKillFiresAtExactGeneration) {
  FaultPlan plan;
  plan.kill_at_generation = 5;
  FaultInjector inj(plan);
  for (int gen = 1; gen <= 10; ++gen) {
    inj.TickGeneration();
    std::string site;
    bool killed = inj.ShouldKillWorker(&site);
    EXPECT_EQ(killed, gen == 5) << "gen " << gen;
    if (killed) {
      EXPECT_NE(site.find("worker-death@gen=5"), std::string::npos);
    }
  }
}

TEST(FaultInjectorTest, DropIsForceDeliveredAtMaxAttempts) {
  FaultPlan plan;
  plan.seed = 3;
  plan.link_drop_rate = 1.0;
  plan.max_drop_attempts = 4;
  FaultInjector inj(plan);
  for (uint32_t attempts = 0; attempts < 4; ++attempts) {
    EXPECT_TRUE(inj.ShouldDropLink(9, 0, attempts)) << attempts;
  }
  EXPECT_FALSE(inj.ShouldDropLink(9, 0, 4));
  EXPECT_FALSE(inj.ShouldDropLink(9, 0, 5));
}

TEST(FaultInjectorTest, TearDrawsPerCheckpoint) {
  FaultPlan always;
  always.snapshot_tear_rate = 1.0;
  FaultInjector inj(always);
  EXPECT_TRUE(inj.ShouldTearSnapshot());
  EXPECT_TRUE(inj.ShouldTearSnapshot());

  FaultPlan never;
  never.seed = 5;
  never.worker_death_rate = 1.0;  // enabled(), but tear stays off.
  FaultInjector off(never);
  EXPECT_FALSE(off.ShouldTearSnapshot());

  // Successive checkpoints draw independent coins from the same seed: two
  // injectors agree call-by-call.
  FaultPlan half;
  half.seed = 13;
  half.snapshot_tear_rate = 0.5;
  FaultInjector c(half);
  FaultInjector d(half);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(c.ShouldTearSnapshot(), d.ShouldTearSnapshot()) << i;
  }
}

// --- Spec parsing ------------------------------------------------------------

TEST(ParseFaultSpecTest, FullSpecRoundTrips) {
  auto plan = ParseFaultSpec(
      "seed=7,kill_gen=12,death=0.001,alloc=0.25,tear=0.5,drop=0.01,"
      "dup=0.005,max_attempts=8");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_EQ(plan->kill_at_generation, 12);
  EXPECT_DOUBLE_EQ(plan->worker_death_rate, 0.001);
  EXPECT_DOUBLE_EQ(plan->alloc_fail_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan->snapshot_tear_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan->link_drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan->link_dup_rate, 0.005);
  EXPECT_EQ(plan->max_drop_attempts, 8u);
  EXPECT_TRUE(plan->enabled());
  EXPECT_TRUE(plan->lossy());

  auto again = ParseFaultSpec(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->ToString(), plan->ToString());
}

TEST(ParseFaultSpecTest, EmptySpecDisablesEverything) {
  auto plan = ParseFaultSpec("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled());
  EXPECT_FALSE(plan->lossy());
}

TEST(ParseFaultSpecTest, TypedErrors) {
  EXPECT_EQ(ParseFaultSpec("bogus=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("seed").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("seed=xyz").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("drop=1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("death=-0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("max_attempts=0").status().code(),
            StatusCode::kInvalidArgument);
}

// --- Crash recovery ----------------------------------------------------------

constexpr char kReachable[] = R"(
  reachable(x,y) :- link(x,y).
  reachable(x,y) :- link(x,z), reachable(z,y).
  fanout(x,count<y>) :- reachable(x,y).
)";

constexpr int kNodes = 16;

EngineOptions GraphOptions(ProvMode prov) {
  EngineOptions options;
  options.num_nodes = kNodes;
  options.runtime.prov = prov;
  return options;
}

SessionOptions BaseSessionOptions(int shards) {
  SessionOptions options;
  options.num_nodes = kNodes;
  options.num_physical = 4;
  options.shards = shards;
  return options;
}

// Ring + chords, with a delete phase so kill messages flow too.
void InsertPhase(Session* session) {
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(
        session->Insert("link", {double(i), double((i + 1) % kNodes)}).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(
          session->Insert("link", {double(i), double((i + 5) % kNodes)}).ok());
    }
  }
}

void DeletePhase(Session* session) {
  ASSERT_TRUE(session->Delete("link", {2, 3}).ok());
  ASSERT_TRUE(session->Delete("link", {0, 5}).ok());
}

struct SessionOutcome {
  std::vector<Tuple> reachable;
  std::vector<Tuple> fanout;
  RunMetrics metrics;
};

// The shared workload: insert phase, Apply, delete phase, Apply, scan.
void RunWorkload(Session* session, View* view, SessionOutcome* out) {
  InsertPhase(session);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Status st = session->Apply();
  ASSERT_TRUE(st.ok()) << st.ToString();
  DeletePhase(session);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  st = session->Apply();
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto reachable = view->Scan("reachable");
  auto fanout = view->Scan("fanout");
  ASSERT_TRUE(reachable.ok() && fanout.ok());
  out->reachable = *reachable;
  out->fanout = *fanout;
  out->metrics = view->Metrics();
}

class CrashRecoveryTest
    : public ::testing::TestWithParam<std::tuple<ProvMode, int>> {};

INSTANTIATE_TEST_SUITE_P(
    ProvModesByShards, CrashRecoveryTest,
    ::testing::Combine(::testing::Values(ProvMode::kAbsorption,
                                         ProvMode::kRelative, ProvMode::kSet),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<ProvMode, int>>& info) {
      return std::string(ProvModeName(std::get<0>(info.param))) + "Shards" +
             std::to_string(std::get<1>(info.param));
    });

// The tentpole acceptance bar: a run killed mid-drain and recovered from
// the entry micro-checkpoint finishes with Scan results and traffic
// counters bit-identical to a run that never faulted.
TEST_P(CrashRecoveryTest, RecoveredRunIsBitIdentical) {
  const auto [prov, shards] = GetParam();

  SessionOutcome baseline;
  {
    Session session(BaseSessionOptions(shards));
    auto view = session.AddProgram(kReachable, GraphOptions(prov));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    RunWorkload(&session, *view, &baseline);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(session.recoveries(), 0u);
  }

  SessionOptions faulted_options = BaseSessionOptions(shards);
  faulted_options.faults.seed = FaultSeed(21);
  faulted_options.faults.kill_at_generation = 3;
  faulted_options.recovery.enabled = true;
  Session faulted(faulted_options);
  auto view = faulted.AddProgram(kReachable, GraphOptions(prov));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  SessionOutcome recovered;
  RunWorkload(&faulted, *view, &recovered);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_GE(faulted.recoveries(), 1u) << "the one-shot kill never fired";
  EXPECT_EQ(recovered.reachable, baseline.reachable);
  EXPECT_EQ(recovered.fanout, baseline.fanout);
  EXPECT_EQ(recovered.metrics.messages, baseline.metrics.messages);
  EXPECT_EQ(recovered.metrics.kill_messages, baseline.metrics.kill_messages);
  EXPECT_DOUBLE_EQ(recovered.metrics.comm_mb, baseline.metrics.comm_mb);
  EXPECT_EQ(recovered.metrics.recoveries, faulted.recoveries());
}

// Rate-based deaths (re-randomized per recovery epoch) are masked the same
// way; with a generous retry budget the run converges to the baseline.
TEST_P(CrashRecoveryTest, RateBasedDeathsAreMasked) {
  const auto [prov, shards] = GetParam();

  SessionOutcome baseline;
  {
    Session session(BaseSessionOptions(shards));
    auto view = session.AddProgram(kReachable, GraphOptions(prov));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    RunWorkload(&session, *view, &baseline);
    ASSERT_FALSE(HasFatalFailure());
  }

  SessionOptions faulted_options = BaseSessionOptions(shards);
  faulted_options.faults.seed = FaultSeed(77);
  faulted_options.faults.worker_death_rate = 0.02;
  faulted_options.recovery.enabled = true;
  faulted_options.recovery.max_recoveries = 64;
  faulted_options.recovery.checkpoint_interval = 4;
  Session faulted(faulted_options);
  auto view = faulted.AddProgram(kReachable, GraphOptions(prov));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  SessionOutcome recovered;
  RunWorkload(&faulted, *view, &recovered);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_EQ(recovered.reachable, baseline.reachable);
  EXPECT_EQ(recovered.fanout, baseline.fanout);
  EXPECT_EQ(recovered.metrics.messages, baseline.metrics.messages);
  EXPECT_EQ(recovered.metrics.kill_messages, baseline.metrics.kill_messages);
}

TEST(CrashRecoveryEdgeTest, RecoveryDisabledSurfacesUnavailable) {
  SessionOptions options = BaseSessionOptions(2);
  options.faults.kill_at_generation = 2;
  Session session(options);
  auto view =
      session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  InsertPhase(&session);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Status st = session.Apply();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(session.recoveries(), 0u);
}

TEST(CrashRecoveryEdgeTest, RetryBudgetExhaustionSurfacesTheFault) {
  // Every generation dies: max_recoveries runs out and the fault escapes.
  SessionOptions options = BaseSessionOptions(1);
  options.faults.seed = 5;
  options.faults.worker_death_rate = 1.0;
  options.recovery.enabled = true;
  options.recovery.max_recoveries = 3;
  Session session(options);
  auto view =
      session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  InsertPhase(&session);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Status st = session.Apply();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(session.recoveries(), 3u);
}

// --- Torn checkpoints --------------------------------------------------------

class TornCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and process: ctest -j runs the fixture's tests as
    // parallel processes.
    path_ = ::testing::TempDir() + "fault_test_torn." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(getpid()) + ".snap";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  static bool Exists(const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    if (f != nullptr) std::fclose(f);
    return f != nullptr;
  }
  std::string path_;
};

TEST_F(TornCheckpointTest, TearNeverTouchesTheTarget) {
  // A good snapshot first, from a fault-free session.
  {
    Session session(BaseSessionOptions(1));
    auto view =
        session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    InsertPhase(&session);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(session.Apply().ok());
    Status st = session.Checkpoint(path_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(Exists(path_));
  EXPECT_FALSE(Exists(path_ + ".tmp")) << "rename must consume the tmp file";

  // A session whose every checkpoint tears: the write stops inside the
  // .tmp, the call reports Unavailable, and the good snapshot survives.
  {
    SessionOptions options = BaseSessionOptions(1);
    options.faults.seed = 2;
    options.faults.snapshot_tear_rate = 1.0;
    Session session(options);
    auto view =
        session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    InsertPhase(&session);
    DeletePhase(&session);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(session.Apply().ok());
    Status st = session.Checkpoint(path_);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
    EXPECT_TRUE(Exists(path_ + ".tmp")) << "the torn write leaves the tmp";
  }

  // The untouched target still restores, with the pre-tear contents.
  Session restored(BaseSessionOptions(1));
  Status st = restored.Restore(path_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(restored.num_views(), 1u);
  auto contains = restored.view(0)->Contains("reachable", {2, 3});
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains) << "restored the torn write instead of the original";
}

// --- Lossy links -------------------------------------------------------------

std::vector<std::string> SortedTupleStrings(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LossyLinkTest, ConvergesToTheLosslessFixpoint) {
  SessionOutcome lossless;
  {
    Session session(BaseSessionOptions(2));
    auto view =
        session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    RunWorkload(&session, *view, &lossless);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(lossless.metrics.link_dropped, 0u);
    EXPECT_EQ(lossless.metrics.link_duplicated, 0u);
    EXPECT_EQ(lossless.metrics.link_retried, 0u);
  }

  SessionOptions options = BaseSessionOptions(2);
  options.faults.seed = FaultSeed(9);
  options.faults.link_drop_rate = 0.25;
  options.faults.link_dup_rate = 0.2;
  Session session(options);
  auto view =
      session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  SessionOutcome lossy;
  RunWorkload(&session, *view, &lossy);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Same fixpoint (delivery order differs, so compare as sets)...
  EXPECT_EQ(SortedTupleStrings(lossy.reachable),
            SortedTupleStrings(lossless.reachable));
  EXPECT_EQ(SortedTupleStrings(lossy.fanout),
            SortedTupleStrings(lossless.fanout));
  // ...and the loss actually happened, visible in the counters.
  EXPECT_GT(lossy.metrics.link_dropped, 0u);
  EXPECT_GT(lossy.metrics.link_retried, 0u);
  EXPECT_GT(lossy.metrics.link_duplicated, 0u);
}

TEST(LossyLinkTest, LossyRunIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    SessionOptions options = BaseSessionOptions(4);
    options.faults.seed = seed;
    options.faults.link_drop_rate = 0.3;
    Session session(options);
    auto view =
        session.AddProgram(kReachable, GraphOptions(ProvMode::kSet));
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    SessionOutcome out;
    RunWorkload(&session, *view, &out);
    return out;
  };
  SessionOutcome a = run(FaultSeed(31));
  SessionOutcome b = run(FaultSeed(31));
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(a.reachable, b.reachable);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.link_dropped, b.metrics.link_dropped);
  EXPECT_EQ(a.metrics.link_retried, b.metrics.link_retried);
  EXPECT_EQ(a.metrics.link_duplicated, b.metrics.link_duplicated);
}

TEST(LossyLinkTest, InertAtOneShard) {
  // Loss is injected on shard-boundary links only: a single shard has none,
  // so the run is bit-identical to a lossless one.
  SessionOutcome lossless;
  {
    Session session(BaseSessionOptions(1));
    auto view =
        session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    RunWorkload(&session, *view, &lossless);
  }
  SessionOptions options = BaseSessionOptions(1);
  options.faults.seed = FaultSeed(4);
  options.faults.link_drop_rate = 0.5;
  options.faults.link_dup_rate = 0.5;
  Session session(options);
  auto view =
      session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  SessionOutcome lossy;
  RunWorkload(&session, *view, &lossy);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(lossy.metrics.link_dropped, 0u);
  EXPECT_EQ(lossy.metrics.link_duplicated, 0u);
  EXPECT_EQ(lossy.reachable, lossless.reachable);
  EXPECT_EQ(lossy.metrics.messages, lossless.metrics.messages);
}

}  // namespace
}  // namespace recnet
