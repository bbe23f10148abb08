// Session persistence coverage. The contract under test: a session restored
// from a checkpoint is indistinguishable from one that never stopped —
// every post-restore Apply/Scan result and every per-view network counter
// is bit-identical to an uninterrupted control session, across all
// ProvModes, maintenance strategies, and shard counts. Plus the rest of the
// tenant lifecycle: corrupt/truncated/version-skewed snapshots fail with
// typed errors, Checkpoint refuses undrained queues, RemoveProgram returns
// the BDD manager to its pre-AddProgram footprint without perturbing
// co-resident views, and per-view message budgets are enforced per tenant
// inside one shared drain.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bdd/bdd.h"
#include "common/rng.h"
#include "engine/session.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "topology/sensor_grid.h"

namespace recnet {
namespace {

constexpr char kReachable[] = R"(
  reachable(x,y) :- edge(x,y).
  reachable(x,y) :- edge(x,z), reachable(z,y).
  fanout(x,count<y>) :- reachable(x,y).
)";

constexpr char kSpan[] = R"(
  span(x,y) :- edge(x,y).
  span(x,y) :- span(x,z), edge(z,y).
)";

constexpr char kShortestPath[] = R"(
  path(x,y,c) :- link(x,y,c).
  path(x,y,c) :- link(x,z,c), path(z,y,c2).
  minCost(x,y,min<c>) :- path(x,y,c).
)";

constexpr char kRegion[] = R"(
  activeRegion(r,x) :- seed(r,x), triggered(x).
  activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
  regionSizes(r,count<x>) :- activeRegion(r,x).
)";

constexpr int kNodes = 12;

// Removes every TempPath file, and the .tmp sibling an atomic write may
// leave, when the test program exits.
class TempFiles : public ::testing::Environment {
 public:
  static std::vector<std::string>& paths() {
    static std::vector<std::string> paths;
    return paths;
  }
  void TearDown() override {
    for (const std::string& p : paths()) {
      std::remove(p.c_str());
      std::remove((p + ".tmp").c_str());
    }
  }
};
::testing::Environment* const kTempFiles =
    ::testing::AddGlobalTestEnvironment(new TempFiles);

// A scratch path unique to the running test and process. ctest runs every
// discovered test in its own process, in parallel under -j, so a fixed name
// would let parameterised cases overwrite each other's snapshots.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag =
      std::string(info->test_suite_name()) + "." + info->name();
  std::replace(tag.begin(), tag.end(), '/', '_');
  std::string path = std::string(::testing::TempDir()) + "/" + tag + "." +
                     std::to_string(getpid()) + "." + name;
  TempFiles::paths().push_back(path);
  return path;
}

SensorField TestField() {
  SensorGridOptions grid;
  grid.grid_dim = 4;
  grid.num_seeds = 2;
  grid.seed = 7;
  return MakeSensorGrid(grid);
}

struct Strategy {
  const char* name;
  ProvMode prov;
  ShipMode ship;
};

const Strategy kStrategies[] = {
    {"DRed", ProvMode::kSet, ShipMode::kDirect},
    {"AbsorptionLazy", ProvMode::kAbsorption, ShipMode::kLazy},
    {"AbsorptionEager", ProvMode::kAbsorption, ShipMode::kEager},
    {"RelativeLazy", ProvMode::kRelative, ShipMode::kLazy},
    {"RelativeEager", ProvMode::kRelative, ShipMode::kEager},
};

const int kShardCounts[] = {1, 2, 4};

SessionOptions SharedOptions(int shards) {
  SessionOptions options;
  options.num_nodes = kNodes;
  options.num_physical = 4;
  options.shards = shards;
  return options;
}

EngineOptions GraphOptions(const Strategy& strategy) {
  EngineOptions options;
  options.num_nodes = kNodes;
  options.runtime.prov = strategy.prov;
  options.runtime.ship = strategy.ship;
  options.runtime.batch_window = 16;
  return options;
}

// Seed-deterministic mutation stream, split into a pre-checkpoint and a
// post-checkpoint phase so the snapshot lands mid-workload.
struct Workload {
  std::vector<std::pair<int, int>> phase1_inserts;
  std::vector<std::pair<int, int>> phase2_inserts;
  std::vector<std::pair<int, int>> phase2_deletes;
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  for (int i = 0; i < kNodes; ++i) {
    w.phase1_inserts.push_back({i, (i + 1) % kNodes});
    if (i % 3 == 0) w.phase1_inserts.push_back({i, (i + 5) % kNodes});
  }
  for (int i = 0; i < 6; ++i) {
    w.phase2_inserts.push_back(
        {static_cast<int>(rng.NextBounded(kNodes)),
         static_cast<int>(rng.NextBounded(kNodes - 1)) + 1});
  }
  for (const auto& link : w.phase1_inserts) {
    if (rng.NextBool(0.3)) w.phase2_deletes.push_back(link);
  }
  return w;
}

void RunPhase1(Session* session, const Workload& w) {
  for (const auto& [src, dst] : w.phase1_inserts) {
    ASSERT_TRUE(session->Insert("edge", {double(src), double(dst)}).ok());
  }
  ASSERT_TRUE(session->Apply().ok());
}

void RunPhase2(Session* session, const Workload& w) {
  for (const auto& [src, dst] : w.phase2_inserts) {
    ASSERT_TRUE(session->Insert("edge", {double(src), double(dst)}).ok());
  }
  ASSERT_TRUE(session->Apply().ok());
  for (const auto& [src, dst] : w.phase2_deletes) {
    ASSERT_TRUE(session->Delete("edge", {double(src), double(dst)}).ok());
  }
  ASSERT_TRUE(session->Apply().ok());
}

// Everything observable about one view: scans of every (sub)view named,
// plus the full per-namespace router counters.
struct ViewObservation {
  std::vector<std::vector<Tuple>> scans;
  RunMetrics metrics;
};

ViewObservation Observe(const View* view,
                        const std::vector<std::string>& scan_names) {
  ViewObservation obs;
  for (const std::string& name : scan_names) {
    auto rows = view->Scan(name);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    obs.scans.push_back(rows.ok() ? rows.value() : std::vector<Tuple>());
  }
  obs.metrics = view->Metrics();
  return obs;
}

void ExpectObservationsEqual(const ViewObservation& got,
                             const ViewObservation& want, const char* label) {
  ASSERT_EQ(got.scans.size(), want.scans.size()) << label;
  for (size_t i = 0; i < got.scans.size(); ++i) {
    EXPECT_EQ(got.scans[i], want.scans[i]) << label << " scan " << i;
  }
  EXPECT_EQ(got.metrics.messages, want.metrics.messages) << label;
  EXPECT_EQ(got.metrics.kill_messages, want.metrics.kill_messages) << label;
  EXPECT_EQ(got.metrics.batches, want.metrics.batches) << label;
  EXPECT_DOUBLE_EQ(got.metrics.comm_mb, want.metrics.comm_mb) << label;
  EXPECT_DOUBLE_EQ(got.metrics.per_tuple_prov_bytes,
                   want.metrics.per_tuple_prov_bytes)
      << label;
}

class PersistParityTest : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(AllStrategies, PersistParityTest,
                         ::testing::ValuesIn(kStrategies),
                         [](const ::testing::TestParamInfo<Strategy>& info) {
                           return info.param.name;
                         });

// The tentpole acceptance bar: checkpoint a two-view session mid-workload,
// restore it into a fresh session, resume the mutation stream, and every
// scan and counter matches an uninterrupted control — for every maintenance
// strategy and shard count.
TEST_P(PersistParityTest, RoundTripIsBitIdentical) {
  const Strategy strategy = GetParam();
  const Workload w =
      MakeWorkload(0x5eed + static_cast<uint64_t>(strategy.prov));
  const std::vector<std::string> reach_views = {"reachable", "fanout"};
  const std::vector<std::string> span_views = {"span"};

  for (int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << strategy.name << " shards=" << shards);
    const std::string path = TempPath("roundtrip.ckpt");

    // Control: both phases, no interruption.
    Session control(SharedOptions(shards));
    auto c_reach = control.AddProgram(kReachable, GraphOptions(strategy));
    auto c_span = control.AddProgram(kSpan, GraphOptions(strategy));
    ASSERT_TRUE(c_reach.ok() && c_span.ok());
    RunPhase1(&control, w);
    RunPhase2(&control, w);

    // Checkpointed session: phase 1, snapshot, teardown.
    {
      Session session(SharedOptions(shards));
      auto reach = session.AddProgram(kReachable, GraphOptions(strategy));
      auto span = session.AddProgram(kSpan, GraphOptions(strategy));
      ASSERT_TRUE(reach.ok() && span.ok());
      RunPhase1(&session, w);
      Status st = session.Checkpoint(path);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }

    // Restore into a virgin session and resume phase 2.
    Session restored(SharedOptions(shards));
    Status st = restored.Restore(path);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(restored.num_views(), 2u);
    RunPhase2(&restored, w);

    ExpectObservationsEqual(Observe(restored.view(0), reach_views),
                            Observe(*c_reach, reach_views), "reachable");
    ExpectObservationsEqual(Observe(restored.view(1), span_views),
                            Observe(*c_span, span_views), "span");
  }
}

// Cross-shard restore: a snapshot taken on a single-shard session restores
// onto a sharded one (and vice versa) with the same bit-identical
// trajectory — delivery is shard-count invariant, so the persisted form is
// too.
TEST(PersistTest, RestoreAcrossShardCounts) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const Workload w = MakeWorkload(99);
  const std::string path = TempPath("crossshard.ckpt");

  Session control(SharedOptions(1));
  auto c_reach = control.AddProgram(kReachable, GraphOptions(strategy));
  ASSERT_TRUE(c_reach.ok());
  RunPhase1(&control, w);
  RunPhase2(&control, w);

  {
    Session session(SharedOptions(1));
    ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
    RunPhase1(&session, w);
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }

  for (int shards : {2, 4}) {
    SCOPED_TRACE(shards);
    Session restored(SharedOptions(shards));
    Status st = restored.Restore(path);
    ASSERT_TRUE(st.ok()) << st.ToString();
    RunPhase2(&restored, w);
    ExpectObservationsEqual(Observe(restored.view(0), {"reachable", "fanout"}),
                            Observe(*c_reach, {"reachable", "fanout"}),
                            "reachable");
  }
}

// DRed's re-derivation seed fires each node's live links in base-variable
// order. Deleting and re-inserting link(0,1) gives it a fresh, larger
// variable, so node 0's seed fires it after link(0,2) and link(0,3) —
// unlike first-insertion order. A later DRed deletion re-derives through
// that seed; its counters are pinned, and a checkpoint taken between the
// re-insert and the deletion resumes with the same counters.
TEST(PersistTest, DRedSeedOrderFollowsLinkRenewal) {
  const Strategy dred = kStrategies[0];
  const std::vector<std::pair<int, int>> links = {
      {0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 5}, {4, 5}, {5, 0}, {4, 6}};
  // Phase 1: build the graph, then renew link(0,1).
  auto phase1 = [&](Session* session) {
    for (const auto& [src, dst] : links) {
      ASSERT_TRUE(session->Insert("edge", {double(src), double(dst)}).ok());
    }
    ASSERT_TRUE(session->Apply().ok());
    ASSERT_TRUE(session->Delete("edge", {0.0, 1.0}).ok());
    ASSERT_TRUE(session->Apply().ok());
    ASSERT_TRUE(session->Insert("edge", {0.0, 1.0}).ok());
    ASSERT_TRUE(session->Apply().ok());
  };
  // Phase 2: a DRed deletion whose re-derivation re-fires node 0's links.
  auto phase2 = [&](Session* session) {
    ASSERT_TRUE(session->Delete("edge", {2.0, 4.0}).ok());
    ASSERT_TRUE(session->Apply().ok());
  };
  const std::vector<std::string> views = {"reachable"};

  for (int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    Session control(SharedOptions(shards));
    auto reach = control.AddProgram(kReachable, GraphOptions(dred));
    ASSERT_TRUE(reach.ok());
    phase1(&control);
    phase2(&control);
    ViewObservation want = Observe(*reach, views);
    // Nodes 0, 1, 3, 4 and 5 reach every node 0..6 through the cycle
    // 0 -> 1 -> 4 -> 5 -> 0; nodes 2 and 6 have no outgoing link.
    std::vector<Tuple> expected;
    for (int src : {0, 1, 3, 4, 5}) {
      for (int dst = 0; dst <= 6; ++dst) {
        expected.push_back(Tuple::OfInts({src, dst}));
      }
    }
    EXPECT_EQ(want.scans[0], expected);
    // Pinned trajectory counters.
    EXPECT_EQ(want.metrics.messages, 278u);
    EXPECT_EQ(want.metrics.kill_messages, 0u);
    EXPECT_EQ(want.metrics.batches, 222u);

    const std::string path = TempPath("dred-seed.ckpt");
    {
      Session session(SharedOptions(shards));
      ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(dred)).ok());
      phase1(&session);
      ASSERT_TRUE(session.Checkpoint(path).ok());
    }
    Session restored(SharedOptions(shards));
    Status st = restored.Restore(path);
    ASSERT_TRUE(st.ok()) << st.ToString();
    phase2(&restored);
    ExpectObservationsEqual(Observe(restored.view(0), views), want,
                            "restored");
  }
}

// Shortest-path and region views round-trip too: operator state includes
// aggregate selections, group-by counts, and the deployment-bound sensor
// field (which must be re-encoded through EngineOptions).
TEST(PersistTest, ShortestPathAndRegionRoundTrip) {
  const std::string path = TempPath("mixed.ckpt");
  SensorField field = TestField();
  EngineOptions path_options;
  path_options.num_nodes = kNodes;
  EngineOptions region_options;
  region_options.field = field;

  auto build = [&](Session* session) {
    ASSERT_TRUE(session->AddProgram(kShortestPath, path_options).ok());
    ASSERT_TRUE(session->AddProgram(kRegion, region_options).ok());
  };
  auto phase1 = [](Session* session) {
    for (int i = 0; i < kNodes; ++i) {
      ASSERT_TRUE(session
                      ->Insert("link", {double(i), double((i + 1) % kNodes),
                                        1.0 + i % 3})
                      .ok());
    }
    ASSERT_TRUE(session->Insert("triggered", {0}).ok());
    ASSERT_TRUE(session->Insert("triggered", {1}).ok());
    ASSERT_TRUE(session->Apply().ok());
  };
  auto phase2 = [](Session* session) {
    ASSERT_TRUE(session->Insert("link", {0, 7, 0.5}).ok());
    ASSERT_TRUE(session->Insert("triggered", {4}).ok());
    ASSERT_TRUE(session->Apply().ok());
    ASSERT_TRUE(session->Delete("link", {3, 4}).ok());
    ASSERT_TRUE(session->Delete("triggered", {1}).ok());
    ASSERT_TRUE(session->Apply().ok());
  };

  Session control(SharedOptions(1));
  build(&control);
  phase1(&control);
  phase2(&control);

  {
    Session session(SharedOptions(1));
    build(&session);
    phase1(&session);
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }

  Session restored(SharedOptions(1));
  Status st = restored.Restore(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  phase2(&restored);

  ExpectObservationsEqual(Observe(restored.view(0), {"path", "minCost"}),
                          Observe(control.view(0), {"path", "minCost"}),
                          "path");
  ExpectObservationsEqual(
      Observe(restored.view(1), {"activeRegion", "regionSizes"}),
      Observe(control.view(1), {"activeRegion", "regionSizes"}), "region");
}

// A shortest-path view without aggregate selection has no AggSel state to
// save; on an acyclic topology, where it converges, it round-trips like any
// other view.
TEST(PersistTest, ShortestPathWithoutAggSelRoundTrip) {
  const std::string path = TempPath("noaggsel.ckpt");
  EngineOptions options;
  options.num_nodes = kNodes;
  options.aggsel = AggSelPolicy::kNone;

  auto build = [&](Session* session) {
    ASSERT_TRUE(session->AddProgram(kShortestPath, options).ok());
  };
  auto phase1 = [](Session* session) {
    // A chain 0 -> 1 -> 2 plus a costlier shortcut 0 -> 2.
    ASSERT_TRUE(session->Insert("link", {0, 1, 1.0}).ok());
    ASSERT_TRUE(session->Insert("link", {1, 2, 1.0}).ok());
    ASSERT_TRUE(session->Insert("link", {0, 2, 5.0}).ok());
    ASSERT_TRUE(session->Apply().ok());
  };
  auto phase2 = [](Session* session) {
    ASSERT_TRUE(session->Insert("link", {2, 3, 2.0}).ok());
    ASSERT_TRUE(session->Apply().ok());
    ASSERT_TRUE(session->Delete("link", {1, 2}).ok());
    ASSERT_TRUE(session->Apply().ok());
  };

  Session control(SharedOptions(1));
  build(&control);
  phase1(&control);
  phase2(&control);

  {
    Session session(SharedOptions(1));
    build(&session);
    phase1(&session);
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }

  Session restored(SharedOptions(1));
  Status st = restored.Restore(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  phase2(&restored);

  ExpectObservationsEqual(Observe(restored.view(0), {"path", "minCost"}),
                          Observe(control.view(0), {"path", "minCost"}),
                          "path");
  auto cost = restored.view(0)->Lookup("minCost", {0, 3});
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 7.0);
}

// Soft-state deadlines survive the round trip: a TTL fact checkpointed
// mid-window expires at the same clock tick in the restored session.
TEST(PersistTest, SoftStateClockRoundTrip) {
  const std::string path = TempPath("ttl.ckpt");
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};

  auto epilogue = [](Session* session) {
    ASSERT_TRUE(session->AdvanceTime(5.0).ok());  // Expires edge(0,5).
    ASSERT_TRUE(session->Apply().ok());
  };

  Session control(SharedOptions(1));
  ASSERT_TRUE(control.AddProgram(kReachable, GraphOptions(strategy)).ok());
  ASSERT_TRUE(control.Insert("edge", {0, 1}).ok());
  ASSERT_TRUE(control.Insert("edge", {1, 2}).ok());
  ASSERT_TRUE(
      control.InsertWithTtl("edge", Tuple({Value(int64_t{0}),
                                           Value(int64_t{5})}), 4.0)
          .ok());
  ASSERT_TRUE(control.Apply().ok());
  epilogue(&control);

  {
    Session session(SharedOptions(1));
    ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
    ASSERT_TRUE(session.Insert("edge", {0, 1}).ok());
    ASSERT_TRUE(session.Insert("edge", {1, 2}).ok());
    ASSERT_TRUE(
        session.InsertWithTtl("edge", Tuple({Value(int64_t{0}),
                                             Value(int64_t{5})}), 4.0)
            .ok());
    ASSERT_TRUE(session.Apply().ok());
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }

  Session restored(SharedOptions(1));
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.now(), 0.0);
  epilogue(&restored);

  ExpectObservationsEqual(Observe(restored.view(0), {"reachable"}),
                          Observe(control.view(0), {"reachable"}),
                          "reachable after expiry");
}

// The inspector surface: the summary block describes the session without
// decoding operator state.
TEST(PersistTest, SnapshotSummaryDescribesTheSession) {
  const std::string path = TempPath("summary.ckpt");
  const Strategy relative{"RelativeLazy", ProvMode::kRelative,
                          ShipMode::kLazy};
  // Relative provenance interns no BDD nodes; give the second view
  // absorption provenance so the serialized node table is non-trivial.
  const Strategy absorption{"AbsorptionLazy", ProvMode::kAbsorption,
                            ShipMode::kLazy};
  Session session(SharedOptions(2));
  ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(relative)).ok());
  ASSERT_TRUE(session.AddProgram(kSpan, GraphOptions(absorption)).ok());
  ASSERT_TRUE(session.Insert("edge", {0, 1}).ok());
  ASSERT_TRUE(session.Insert("edge", {1, 2}).ok());
  ASSERT_TRUE(session.Delete("edge", {1, 2}).ok());
  ASSERT_TRUE(session.Apply().ok());
  ASSERT_TRUE(session.Checkpoint(path).ok());

  persist::SnapshotHeader header;
  persist::SnapshotSummary summary;
  Status st = persist::InspectSnapshot(path, /*verify=*/true, &header,
                                       &summary);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(summary.num_nodes, kNodes);
  EXPECT_EQ(summary.num_physical, 4);
  EXPECT_EQ(summary.shards, 2);
  EXPECT_GT(summary.bdd_nodes, 0u);
  ASSERT_EQ(summary.relations.size(), 1u);
  EXPECT_EQ(summary.relations[0].name, "edge");
  EXPECT_EQ(summary.relations[0].arity, 2u);
  EXPECT_EQ(summary.relations[0].live_facts, 1u);  // (1,2) was deleted.
  ASSERT_EQ(summary.views.size(), 2u);
  EXPECT_EQ(summary.views[0].name, "reachable");
  EXPECT_EQ(summary.views[0].prov_mode, "relative");
  EXPECT_EQ(summary.views[1].name, "span");
  EXPECT_EQ(summary.views[1].prov_mode, "absorption");
  EXPECT_GT(summary.views[0].messages, 0u);
}

// --- Typed failure modes ----------------------------------------------------

class PersistCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.ckpt");
    Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                      ShipMode::kLazy};
    Session session(SharedOptions(1));
    ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
    ASSERT_TRUE(session.Insert("edge", {0, 1}).ok());
    ASSERT_TRUE(session.Insert("edge", {1, 2}).ok());
    ASSERT_TRUE(session.Apply().ok());
    ASSERT_TRUE(session.Checkpoint(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  void WriteBack(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  StatusCode RestoreCode() {
    Session session(SharedOptions(1));
    return session.Restore(path_).code();
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(PersistCorruptionTest, MissingFileIsNotFound) {
  Session session(SharedOptions(1));
  EXPECT_EQ(session.Restore(TempPath("no-such.ckpt")).code(),
            StatusCode::kNotFound);
}

TEST_F(PersistCorruptionTest, TruncationIsDataLoss) {
  std::vector<char> truncated(bytes_.begin(),
                              bytes_.begin() + bytes_.size() / 2);
  WriteBack(truncated);
  EXPECT_EQ(RestoreCode(), StatusCode::kDataLoss);
  // Truncated into the header itself: still DataLoss, never a crash.
  truncated.resize(10);
  WriteBack(truncated);
  EXPECT_EQ(RestoreCode(), StatusCode::kDataLoss);
}

TEST_F(PersistCorruptionTest, BitFlipIsDataLoss) {
  std::vector<char> flipped = bytes_;
  flipped[flipped.size() - 9] ^= 0x40;  // Inside the payload.
  WriteBack(flipped);
  EXPECT_EQ(RestoreCode(), StatusCode::kDataLoss);
}

TEST_F(PersistCorruptionTest, VersionSkewIsInvalidArgument) {
  // Header layout: magic u64, then version u32. Only the writer's version
  // restores: a future version and the previous formats (v3-v5) all fail.
  for (char version : {char{99}, char{3}, char{4}, char{5}}) {
    std::vector<char> skewed = bytes_;
    skewed[8] = version;
    WriteBack(skewed);
    EXPECT_EQ(RestoreCode(), StatusCode::kInvalidArgument) << int{version};
  }
}

TEST_F(PersistCorruptionTest, WrongMagicIsInvalidArgument) {
  std::vector<char> wrong = bytes_;
  wrong[0] ^= 0xff;
  WriteBack(wrong);
  EXPECT_EQ(RestoreCode(), StatusCode::kInvalidArgument);
}

// Byte-level fuzz, part 1: truncating the container at EVERY offset must
// yield a typed error — the header probe, the size check, or the checksum
// catches it — and never a crash, hang, or sanitizer report.
TEST_F(PersistCorruptionTest, TruncationAtEveryOffsetIsTyped) {
  for (size_t n = 0; n < bytes_.size(); ++n) {
    WriteBack(std::vector<char>(bytes_.begin(),
                                bytes_.begin() + static_cast<long>(n)));
    std::vector<uint8_t> payload;
    Status st = persist::ReadSnapshotPayload(path_, &payload);
    ASSERT_FALSE(st.ok()) << "truncation to " << n << " bytes went unnoticed";
    ASSERT_TRUE(st.code() == StatusCode::kDataLoss ||
                st.code() == StatusCode::kInvalidArgument)
        << "offset " << n << ": " << st.ToString();
  }
}

// Byte-level fuzz, part 2: seeded single-bit flips anywhere in the file.
// The checksum covers the payload and the header fields are validated, so
// every flip must surface as DataLoss or InvalidArgument — from the raw
// container read AND from the full Session::Restore path.
TEST_F(PersistCorruptionTest, BitFlipFuzzIsTyped) {
  Rng rng(0xf1a9);
  for (int trial = 0; trial < 128; ++trial) {
    std::vector<char> flipped = bytes_;
    size_t at = static_cast<size_t>(rng.NextBounded(flipped.size()));
    flipped[at] ^= static_cast<char>(1u << rng.NextBounded(8));
    WriteBack(flipped);
    std::vector<uint8_t> payload;
    Status st = persist::ReadSnapshotPayload(path_, &payload);
    ASSERT_FALSE(st.ok()) << "flip at byte " << at << " went unnoticed";
    ASSERT_TRUE(st.code() == StatusCode::kDataLoss ||
                st.code() == StatusCode::kInvalidArgument)
        << "byte " << at << ": " << st.ToString();
    StatusCode restore = RestoreCode();
    ASSERT_TRUE(restore == StatusCode::kDataLoss ||
                restore == StatusCode::kInvalidArgument)
        << "byte " << at;
  }
}

// Crash-atomic writes: WriteSnapshotFile stages into `<path>.tmp` and
// renames only once complete, so an interrupted write never leaves a
// partial file at the target. The payload arrives as ordered pieces; a
// three-piece payload tears, lands and checksums exactly like its
// concatenation.
TEST(PersistTest, WriteSnapshotFileIsCrashAtomic) {
  const std::string path = TempPath("atomic.snap");
  auto file_size = [](const std::string& p) -> long {
    std::ifstream in(p, std::ios::binary | std::ios::ate);
    return in.good() ? static_cast<long>(in.tellg()) : -1;
  };

  persist::Writer single;
  for (uint32_t i = 0; i < 64; ++i) single.U32(i);
  persist::Writer first, second, third;
  first.Str("summary");
  for (uint32_t i = 0; i < 40; ++i) second.U32(i * 7919u);
  third.U8(0xab);
  third.U64(0x0123456789abcdefULL);

  const size_t h = persist::kSnapshotHeaderBytes;
  const size_t a = first.bytes().size();
  const size_t b = second.bytes().size();
  const size_t single_total = h + single.bytes().size();
  const size_t split_total = h + a + b + third.bytes().size();
  struct Input {
    std::vector<const persist::Writer*> pieces;
    // Tears at every interesting boundary: nothing written, mid-header,
    // mid-payload (for the split input: inside the second and third
    // pieces, and on the boundary between them), one byte short.
    std::vector<size_t> tears;
  };
  const std::vector<Input> inputs = {
      {{&single},
       {0, 1, h - 1, h + 1, single_total - 1}},
      {{&first, &second, &third},
       {0, h - 1, h + a, h + a + 1, h + a + b - 1, h + a + b, h + a + b + 1,
        split_total - 1}},
  };

  for (const Input& input : inputs) {
    std::vector<uint8_t> concat;
    for (const persist::Writer* piece : input.pieces) {
      concat.insert(concat.end(), piece->bytes().begin(),
                    piece->bytes().end());
    }
    const size_t total = h + concat.size();
    const std::string what = std::to_string(input.pieces.size()) + " piece(s)";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    // The target never appears; the tmp holds exactly the torn prefix.
    for (size_t tear : input.tears) {
      Status st = persist::WriteSnapshotFile(path, input.pieces, tear);
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << what << " tear " << tear;
      EXPECT_EQ(file_size(path), -1)
          << what << " tear " << tear << " touched the target";
      EXPECT_EQ(file_size(path + ".tmp"), static_cast<long>(tear)) << what;
    }

    // The complete write lands and consumes the tmp.
    Status st = persist::WriteSnapshotFile(path, input.pieces);
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    EXPECT_EQ(file_size(path), static_cast<long>(total)) << what;
    EXPECT_EQ(file_size(path + ".tmp"), -1) << what;

    std::vector<uint8_t> read_back;
    persist::SnapshotHeader header;
    ASSERT_TRUE(persist::ReadSnapshotPayload(path, &read_back, &header).ok())
        << what;
    EXPECT_EQ(read_back, concat) << what;
    EXPECT_EQ(header.payload_size, concat.size()) << what;
    EXPECT_EQ(header.checksum, persist::Fnv1a(concat.data(), concat.size()))
        << what;
  }
  std::remove(path.c_str());
}

TEST(PersistTest, CheckpointRequiresDrainedQueue) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  Session session(SharedOptions(1));
  ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
  ASSERT_TRUE(session.Insert("edge", {0, 1}).ok());
  // No Apply(): the insertion is still queued.
  EXPECT_EQ(session.Checkpoint(TempPath("pending.ckpt")).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_TRUE(session.Checkpoint(TempPath("pending.ckpt")).ok());
}

TEST(PersistTest, RestoreRequiresVirginSession) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const std::string path = TempPath("virgin.ckpt");
  {
    Session session(SharedOptions(1));
    ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }
  Session occupied(SharedOptions(1));
  ASSERT_TRUE(occupied.AddProgram(kSpan, GraphOptions(strategy)).ok());
  EXPECT_EQ(occupied.Restore(path).code(), StatusCode::kFailedPrecondition);
}

TEST(PersistTest, RestoreRejectsDeploymentMismatch) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const std::string path = TempPath("deploy.ckpt");
  {
    Session session(SharedOptions(1));
    ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }
  SessionOptions other;
  other.num_nodes = kNodes;
  other.num_physical = 7;  // Snapshot says 4.
  Session mismatched(other);
  EXPECT_EQ(mismatched.Restore(path).code(), StatusCode::kInvalidArgument);
}

// --- Tenant lifecycle -------------------------------------------------------

// RemoveProgram returns the BDD manager to its pre-AddProgram footprint and
// leaves the co-resident view's state (scans, counters, future runs)
// untouched.
TEST(PersistTest, RemoveProgramReclaimsAndDoesNotPerturb) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  Session session(SharedOptions(1));
  auto reach = session.AddProgram(kReachable, GraphOptions(strategy));
  ASSERT_TRUE(reach.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(session.Insert("edge", {double(i), double(i + 1)}).ok());
  }
  ASSERT_TRUE(session.Apply().ok());

  bdd::Manager* manager = session.substrate()->bdd_manager();
  manager->GarbageCollect();
  const size_t baseline = manager->live_nodes();
  auto before = Observe(*reach, {"reachable", "fanout"});

  // The tenant: a second view that replays the shared EDB (allocating its
  // own base variables and provenance annotations) and runs to fixpoint.
  auto span = session.AddProgram(kSpan, GraphOptions(strategy));
  ASSERT_TRUE(span.ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_GT(manager->live_nodes(), baseline);

  ASSERT_TRUE(session.RemoveProgram(*span).ok());
  EXPECT_EQ(session.num_views(), 1u);
  EXPECT_EQ(manager->live_nodes(), baseline);

  // Double removal: the handle is gone.
  EXPECT_EQ(session.RemoveProgram(*span).code(), StatusCode::kNotFound);

  // The surviving view is unperturbed, and the session keeps working —
  // including the shared EDB store (a later program still sees the facts).
  ExpectObservationsEqual(Observe(*reach, {"reachable", "fanout"}), before,
                          "surviving view");
  ASSERT_TRUE(session.Insert("edge", {7, 8}).ok());
  ASSERT_TRUE(session.Apply().ok());
  auto again = session.AddProgram(kSpan, GraphOptions(strategy));
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(session.Apply().ok());
  auto rows = (*again)->Scan("span");
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(rows->size(), 0u);
}

// A removed tenant's soft-state deadlines must not poison the clock: their
// expiry after removal is a no-op, not an error.
TEST(PersistTest, RemoveProgramToleratesOrphanedTtlFacts) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  Session session(SharedOptions(1));
  auto reach = session.AddProgram(kReachable, GraphOptions(strategy));
  ASSERT_TRUE(reach.ok());
  auto path = session.AddProgram(kShortestPath, GraphOptions(strategy));
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(session
                  .InsertWithTtl("link",
                                 Tuple({Value(int64_t{0}), Value(int64_t{1}),
                                        Value(2.0)}),
                                 3.0)
                  .ok());
  ASSERT_TRUE(session.Apply().ok());
  ASSERT_TRUE(session.RemoveProgram(*path).ok());
  // Only the removed view declared `link`; its TTL fact now expires into
  // nothing.
  EXPECT_TRUE(session.AdvanceTime(10.0).ok());
  ASSERT_TRUE(session.Apply().ok());
}

// Checkpoint → RemoveProgram interplay: a snapshot taken before a removal
// still restores the removed view (snapshots are full images, not logs).
TEST(PersistTest, CheckpointThenRemoveRestoresBothViews) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const std::string path = TempPath("remove.ckpt");
  Session session(SharedOptions(1));
  ASSERT_TRUE(session.AddProgram(kReachable, GraphOptions(strategy)).ok());
  auto span = session.AddProgram(kSpan, GraphOptions(strategy));
  ASSERT_TRUE(span.ok());
  ASSERT_TRUE(session.Insert("edge", {0, 1}).ok());
  ASSERT_TRUE(session.Apply().ok());
  ASSERT_TRUE(session.Checkpoint(path).ok());
  ASSERT_TRUE(session.RemoveProgram(*span).ok());
  EXPECT_EQ(session.num_views(), 1u);

  Session restored(SharedOptions(1));
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.num_views(), 2u);
  auto rows = restored.view(1)->Scan("span");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

// --- Per-view budget arbitration ---------------------------------------------

// Two tenants in one drain: the small-budget view is cut off at ITS budget
// while the co-resident view (and the drain as a whole) runs to fixpoint.
TEST(PersistTest, BudgetArbitrationIsPerView) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  Session session(SharedOptions(1));
  auto big = session.AddProgram(kReachable, GraphOptions(strategy));
  ASSERT_TRUE(big.ok());
  EngineOptions capped = GraphOptions(strategy);
  capped.runtime.message_budget = 5;
  auto small = session.AddProgram(kSpan, capped);
  ASSERT_TRUE(small.ok());

  for (int i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(session.Insert("edge", {double(i), double(i + 1)}).ok());
  }
  // Initiated by the big-budget view: ITS run converges even though the
  // co-resident tenant exhausts its own allowance mid-drain.
  Status st = (*big)->Apply();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE((*big)->converged());
  EXPECT_FALSE((*small)->converged());
  EXPECT_GE((*small)->Metrics().dropped_messages +
                (*small)->Metrics().aborted_runs,
            1u);
  // The budgeted view's delivered count respects its cap's order of
  // magnitude (the abort lands at a batch boundary, never wildly past it).
  EXPECT_LE((*small)->Metrics().messages, 64u);

  // The surviving view's answer is complete (the closure of the inserted
  // path 0 -> 1 -> ... -> kNodes).
  auto rows = (*big)->Scan("reachable");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kNodes) * (kNodes + 1) / 2);
}

// An uncapped co-tenant must not change the historic single-view abort
// semantics: the initiating view still stops at its own budget.
TEST(PersistTest, InitiatorBudgetStillAborts) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  Session session(SharedOptions(1));
  EngineOptions capped = GraphOptions(strategy);
  capped.runtime.message_budget = 5;
  auto small = session.AddProgram(kReachable, capped);
  ASSERT_TRUE(small.ok());
  auto big = session.AddProgram(kSpan, GraphOptions(strategy));
  ASSERT_TRUE(big.ok());

  for (int i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(session.Insert("edge", {double(i), double(i + 1)}).ok());
  }
  Status st = (*small)->Apply();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE((*small)->converged());
  EXPECT_TRUE((*big)->converged());
  auto rows = (*big)->Scan("span");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kNodes) * (kNodes + 1) / 2);
}

// Budget-aborted tenants round-trip too: checkpoint after an abort, restore,
// and the non-converged flag plus abort metrics survive.
TEST(PersistTest, AbortedViewSurvivesRoundTrip) {
  const Strategy strategy{"AbsorptionLazy", ProvMode::kAbsorption,
                          ShipMode::kLazy};
  const std::string path = TempPath("aborted.ckpt");
  uint64_t aborted_messages = 0;
  {
    Session session(SharedOptions(1));
    EngineOptions capped = GraphOptions(strategy);
    capped.runtime.message_budget = 5;
    auto small = session.AddProgram(kReachable, capped);
    ASSERT_TRUE(small.ok());
    for (int i = 0; i < kNodes; ++i) {
      ASSERT_TRUE(session.Insert("edge", {double(i), double(i + 1)}).ok());
    }
    ASSERT_EQ(session.Apply().code(), StatusCode::kResourceExhausted);
    aborted_messages = (*small)->Metrics().messages;
    ASSERT_TRUE(session.Checkpoint(path).ok());
  }
  Session restored(SharedOptions(1));
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_FALSE(restored.view(0)->converged());
  EXPECT_EQ(restored.view(0)->Metrics().messages, aborted_messages);
}

// ---------------------------------------------------------------------------
// Complement-edge codec coverage: the v3 wire format carries tagged refs.
// ---------------------------------------------------------------------------

// A provenance-shaped function family with plenty of complemented edges:
// Or-of-products, their negations, and Diffs between them.
std::vector<bdd::BddRef> ComplementRichRoots(bdd::Manager& mgr) {
  Rng rng(0xced9e);
  std::vector<bdd::BddRef> roots;
  std::vector<bdd::BddRef> base;
  for (int t = 0; t < 12; ++t) {
    bdd::Var lo = static_cast<bdd::Var>(rng.NextBounded(10));
    bdd::BddRef p = bdd::kTrue;
    for (bdd::Var j = 0; j < 3; ++j) p = mgr.And(p, mgr.MakeVar(lo + j));
    base.push_back(p);
  }
  bdd::BddRef f = bdd::kFalse;
  for (bdd::BddRef p : base) {
    f = mgr.Or(f, p);
    roots.push_back(f);
    roots.push_back(mgr.Not(f));
  }
  roots.push_back(mgr.Diff(roots[4], roots[9]));
  roots.push_back(mgr.Diff(mgr.Not(roots[4]), mgr.Not(roots[9])));
  roots.push_back(bdd::kTrue);
  roots.push_back(bdd::kFalse);
  return roots;
}

// The encoded node table and root ids are manager-independent: the same
// functions built under 1, 2, and 4 worker slots (different interning
// orders are possible concurrently; here the build is serial but the slot
// configuration differs) serialize to bit-identical bytes, and complement
// bits survive the round trip — a root and its negation differ by exactly
// the low id bit on the wire and come back as exact tagged-ref negations.
TEST(PersistCodecTest, ComplementEdgeBddsEncodeIdenticallyAcrossSlots) {
  // A conjunction over variables ComplementRichRoots never uses, encoded
  // after its roots.
  auto late_root = [](bdd::Manager& mgr) {
    bdd::BddRef f = bdd::kTrue;
    for (bdd::Var v = 200; v < 264; ++v) f = mgr.And(f, mgr.MakeVar(v));
    return f;
  };
  std::vector<std::vector<uint8_t>> encodings;
  std::vector<std::vector<uint32_t>> ids;
  for (size_t slots : {1, 2, 4}) {
    bdd::Manager mgr;
    mgr.EnsureWorkerSlots(slots);
    std::vector<bdd::BddRef> roots = ComplementRichRoots(mgr);
    roots.push_back(late_root(mgr));
    persist::BddEncoder enc(&mgr);
    persist::Writer w;
    std::vector<uint32_t> root_ids;
    for (bdd::BddRef r : roots) root_ids.push_back(enc.Encode(r));
    enc.WriteNodeTable(&w);
    encodings.push_back(w.bytes());
    ids.push_back(std::move(root_ids));
  }
  // Fourth configuration: the roots land in slots a collection recycled,
  // and the late root is interned between two Encode calls, so the
  // encoder's index map must grow mid-encode.
  {
    bdd::Manager mgr;
    {
      std::vector<bdd::Bdd> garbage;
      for (bdd::Var v = 40; v < 80; ++v) {
        garbage.emplace_back(&mgr, mgr.Or(mgr.MakeVar(v), mgr.MakeVar(v + 1)));
      }
    }
    ASSERT_GT(mgr.GarbageCollect(), 0u);
    const size_t high_water = mgr.allocated_nodes();
    std::vector<bdd::BddRef> roots = ComplementRichRoots(mgr);
    EXPECT_TRUE(std::any_of(roots.begin(), roots.end(), [&](bdd::BddRef r) {
      return (r >> 1) != 0 && (r >> 1) < high_water;
    })) << "no root landed in a recycled slot";
    persist::BddEncoder enc(&mgr);
    persist::Writer w;
    std::vector<uint32_t> root_ids;
    const size_t half = roots.size() / 2;
    for (size_t i = 0; i < roots.size(); ++i) {
      root_ids.push_back(enc.Encode(roots[i]));
      if (i == half) roots.push_back(late_root(mgr));
    }
    enc.WriteNodeTable(&w);
    encodings.push_back(w.bytes());
    ids.push_back(std::move(root_ids));
  }
  for (size_t i = 1; i < encodings.size(); ++i) {
    EXPECT_EQ(encodings[0], encodings[i]) << "configuration " << i;
    EXPECT_EQ(ids[0], ids[i]) << "configuration " << i;
  }

  // Decode into a fresh manager: refs are semantically identical and the
  // negation pairing is preserved ref-for-ref.
  bdd::Manager fresh;
  persist::Reader r(encodings[0]);
  persist::BddDecoder dec(&fresh);
  ASSERT_TRUE(dec.ReadNodeTable(&r).ok());
  // The first 24 roots are (f, ¬f) pairs by construction; the trailing
  // Diff/terminal roots are not paired.
  for (size_t i = 0; i + 1 < 24; i += 2) {
    bdd::BddRef a = dec.Resolve(ids[0][i], &r);
    bdd::BddRef b = dec.Resolve(ids[0][i + 1], &r);
    EXPECT_EQ(ids[0][i] ^ ids[0][i + 1], 1u) << "root pair " << i;
    EXPECT_EQ(b, fresh.Not(a)) << "root pair " << i;
  }
  ASSERT_TRUE(r.Check("resolve").ok());
}

// Decoder-level fuzz: random bit flips in the encoded node table (below the
// container checksum, so nothing screens them out) must either decode — a
// flip can land in a don't-care — or fail typed through Reader's error
// flag; resolving a root against a corrupt table must never crash.
TEST(PersistCodecTest, NodeTableBitFlipFuzzIsTyped) {
  bdd::Manager mgr;
  std::vector<bdd::BddRef> roots = ComplementRichRoots(mgr);
  persist::BddEncoder enc(&mgr);
  std::vector<uint32_t> ids;
  for (bdd::BddRef r : roots) ids.push_back(enc.Encode(r));
  persist::Writer w;
  enc.WriteNodeTable(&w);
  const std::vector<uint8_t>& bytes = w.bytes();

  Rng rng(0xb1f);
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<uint8_t> flipped = bytes;
    size_t at = static_cast<size_t>(rng.NextBounded(flipped.size()));
    flipped[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    bdd::Manager fresh;
    persist::Reader r(flipped);
    persist::BddDecoder dec(&fresh);
    Status st = dec.ReadNodeTable(&r);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "byte " << at;
      continue;
    }
    for (uint32_t id : ids) {
      (void)dec.Resolve(id, &r);  // Must not crash; may flag the reader.
    }
    Status resolved = r.Check("resolve");
    if (!resolved.ok()) {
      EXPECT_EQ(resolved.code(), StatusCode::kDataLoss) << "byte " << at;
    }
  }
}

// Every node reachable from `root` carries the exact signature of its own
// support: the OR of SigBit(v) over Support.
void ExpectExactSignatures(const bdd::Manager& mgr, bdd::BddRef root) {
  std::unordered_set<bdd::BddRef> seen;
  std::vector<bdd::BddRef> stack{root & ~1u};
  while (!stack.empty()) {
    bdd::BddRef f = stack.back();
    stack.pop_back();
    if (mgr.IsTerminal(f) || !seen.insert(f).second) continue;
    std::vector<bdd::Var> support;
    mgr.Support(f, &support);
    uint64_t want = 0;
    for (bdd::Var v : support) want |= bdd::Manager::SigBit(v);
    EXPECT_EQ(mgr.SupportSignature(f), want) << "node " << (f >> 1);
    stack.push_back(mgr.low_of(f) & ~1u);
    stack.push_back(mgr.high_of(f) & ~1u);
  }
}

// Decoded nodes are interned like any other, so their support signatures
// are exact even when they land in slots a collection freed.
TEST(PersistCodecTest, DecodedNodesCarryExactSignatures) {
  bdd::Manager mgr;
  Rng rng(0x5163);
  std::vector<bdd::BddRef> roots;
  for (int t = 0; t < 16; ++t) {
    bdd::BddRef p = bdd::kTrue;
    for (int j = 0; j < 3; ++j) {
      // Variables up to 160 make signature bits collide.
      p = mgr.And(p, mgr.MakeVar(static_cast<bdd::Var>(rng.NextBounded(160))));
    }
    roots.push_back(t == 0 ? p : mgr.Or(roots.back(), mgr.Not(p)));
  }
  persist::BddEncoder enc(&mgr);
  std::vector<uint32_t> ids;
  for (bdd::BddRef r : roots) ids.push_back(enc.Encode(r));
  persist::Writer w;
  enc.WriteNodeTable(&w);

  bdd::Manager fresh;
  for (bdd::Var v = 100; v < 200; ++v) fresh.MakeVar(v);
  ASSERT_GT(fresh.GarbageCollect(), 0u);
  persist::Reader r(w.bytes());
  persist::BddDecoder dec(&fresh);
  ASSERT_TRUE(dec.ReadNodeTable(&r).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    bdd::BddRef restored = dec.Resolve(ids[i], &r);
    EXPECT_EQ(fresh.SupportSignature(restored),
              mgr.SupportSignature(roots[i]));
    ExpectExactSignatures(fresh, restored);
  }
  ASSERT_TRUE(r.Check("resolve").ok());
}

}  // namespace
}  // namespace recnet
