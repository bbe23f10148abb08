#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>

#include "topology/transit_stub.h"
#include "topology/workload.h"

namespace perfbench {
namespace {

using recnet::Tuple;
using recnet::Value;

constexpr char kReachSource[] =
    "reachable(x,y) :- link(x,y).\n"
    "reachable(x,y) :- link(x,z), reachable(z,y).\n";
constexpr char kReachFanoutSource[] =
    "reachable(x,y) :- link(x,y).\n"
    "reachable(x,y) :- link(x,z), reachable(z,y).\n"
    "fanout(x,count<y>) :- reachable(x,y).\n";
constexpr char kPathSource[] =
    "path(x,y,c) :- clink(x,y,c).\n"
    "path(x,y,c) :- clink(x,z,c), path(z,y,c2).\n"
    "minCost(x,y,min<c>) :- path(x,y,c).\n";
constexpr char kRegionSource[] =
    "activeRegion(r,x) :- seed(r,x), triggered(x).\n"
    "activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).\n"
    "regionSizes(r,count<x>) :- activeRegion(r,x).\n";

// --- reach-churn stream ------------------------------------------------------
// Link failures arrive one per Apply; after kFailuresPerRecovery of them a
// single Apply restores them all, so the failure and recovery latency modes
// (tens of ms against sub-ms under DRed) never mix inside the p50 or tail.
constexpr int kFailuresPerRecovery = 4;
// Failures per session. Absorption provenance grows with churn, so a
// session lives for a fixed change count, never a time; a pass spans
// several sessions so that it fails every link of the topology exactly
// once, which keeps the per-seed mix of cheap and expensive links fixed.
// Short sessions also keep a failure's cost from depending much on its
// position: at 33 failures per session the per-seed spread of comm and
// peak RSS was 8-12 %, at 22 it was 2-3 % (and 11 was no better).
constexpr size_t kFailuresPerEpisode = 22;
// Applies of the mixed-batch probe.
constexpr size_t kProbeApplies = 8;

// --- session-mixed stream ----------------------------------------------------
// Rounds per session: each stub uplink (12 of them) fails in one round and
// recovers in the next. Under absorption provenance one uplink failure and
// one recovery cost about the same (a few hundred ms), so alternating them
// keeps a single latency mode.
constexpr int kMixedRounds = 24;
constexpr int kMixedCheckpointEvery = 12;
constexpr int kMixedInitialTriggers = 10;  // Besides the seed sensors.
constexpr int kMixedTriggersPerRound = 3;
constexpr double kTriggerTtl = 5;
constexpr int kPointReadsPerView = 4;

// SplitMix64: the benchmark's own generator, so a stream depends only on
// the seed and this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

Tuple Pair(int a, int b) { return Tuple::OfInts({a, b}); }

Change LinkChange(Change::Kind kind, int a, int b) {
  return Change{kind, "link", Pair(a, b), 0};
}

// Both directions of one physical link, on the relations the workload
// carries (`link`, and `clink` with its latency as the cost).
void LinkFacts(Change::Kind kind, const recnet::TopoLink& l, bool with_cost,
               std::vector<Change>* out) {
  for (auto [a, b] : {std::pair<int, int>{l.a, l.b}, {l.b, l.a}}) {
    out->push_back(LinkChange(kind, a, b));
    if (!with_cost) continue;
    if (kind == Change::kDelete) {
      out->push_back(Change{kind, "clink", Pair(a, b), 0});
    } else {
      out->push_back(Change{kind, "clink",
                            Tuple({Value(int64_t{a}), Value(int64_t{b}),
                                   Value(l.cost_ms)}),
                            0});
    }
  }
}

std::vector<Change> LoadAll(const recnet::Topology& topo, bool with_cost) {
  std::vector<Change> out;
  for (const recnet::TopoLink& l : topo.links) {
    LinkFacts(Change::kInsert, l, with_cost, &out);
  }
  return out;
}

void MakeReachChurn(const std::string& name, uint64_t seed, Workload* w) {
  // The paper's default GT-ITM instance (MakeTransitStub defaults): the
  // seed drives the churn stream over it, not the topology.
  recnet::Topology topo = recnet::MakeTransitStub(recnet::TransitStubOptions{});
  w->num_nodes = topo.num_nodes;
  w->session.num_nodes = topo.num_nodes;
  w->session.shards = name == "reach-churn-dred-4shard" ? 4 : 1;

  Program p;
  p.kind = ViewKind::kReach;
  p.source = kReachSource;
  p.options.num_nodes = topo.num_nodes;
  if (name == "reach-churn-absorption") {
    p.options.runtime.prov = recnet::ProvMode::kAbsorption;
    p.options.runtime.ship = recnet::ShipMode::kLazy;
  } else {
    p.options.runtime.prov = recnet::ProvMode::kSet;
    p.options.runtime.ship = recnet::ShipMode::kDirect;
  }
  w->programs.push_back(p);

  // Every link fails once per pass. Links are dealt to episodes by latency
  // class (transit-transit, transit-stub, intra-stub), so each session
  // fails the same mix of backbone, uplink and stub links, and the seed
  // only decides which link of a class goes where and the order inside an
  // episode.
  Rng rng(seed);
  const size_t num_episodes =
      (topo.links.size() + kFailuresPerEpisode - 1) / kFailuresPerEpisode;
  std::map<double, std::vector<size_t>> by_class;
  for (size_t i = 0; i < topo.links.size(); ++i) {
    by_class[topo.links[i].cost_ms].push_back(i);
  }
  std::vector<std::vector<size_t>> dealt(num_episodes);
  size_t next = 0;
  for (auto& [cost, links] : by_class) {
    rng.Shuffle(&links);
    for (size_t l : links) dealt[next++ % num_episodes].push_back(l);
  }
  std::vector<Change> initial = LoadAll(topo, /*with_cost=*/false);
  for (std::vector<size_t>& links : dealt) {
    rng.Shuffle(&links);
    Episode e;
    e.initial = initial;
    std::vector<size_t> down;
    for (size_t i = 0; i < links.size(); ++i) {
      Step fail;
      LinkFacts(Change::kDelete, topo.links[links[i]], false, &fail.changes);
      e.steps.push_back(std::move(fail));
      down.push_back(links[i]);
      if (down.size() == kFailuresPerRecovery || i + 1 == links.size()) {
        Step recover;
        for (size_t l : down) {
          LinkFacts(Change::kInsert, topo.links[l], false, &recover.changes);
        }
        e.steps.push_back(std::move(recover));
        down.clear();
      }
    }
    e.steps.back().oracle = true;
    w->pass.push_back(std::move(e));
  }

  // Probe: links q0..q8, a fresh draw. q0 starts down; probe round k fails
  // q_k and restores q_{k-1} in the same Apply.
  std::vector<size_t> q(topo.links.size());
  std::iota(q.begin(), q.end(), 0);
  rng.Shuffle(&q);
  q.resize(kProbeApplies + 1);
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (i == q[0]) continue;
    LinkFacts(Change::kInsert, topo.links[i], false, &w->probe.initial);
  }
  for (size_t k = 1; k <= kProbeApplies; ++k) {
    Step s;
    LinkFacts(Change::kDelete, topo.links[q[k]], false, &s.changes);
    LinkFacts(Change::kInsert, topo.links[q[k - 1]], false, &s.changes);
    s.oracle = true;
    w->probe.steps.push_back(std::move(s));
  }
}

void MakeSessionMixed(const std::string& name, uint64_t seed, Workload* w) {
  recnet::Topology topo = recnet::MakeTransitStub(recnet::TransitStubOptions{});
  w->num_nodes = topo.num_nodes;
  w->session.num_nodes = topo.num_nodes;
  w->session.shards = name == "session-mixed-4shard" ? 4 : 1;
  // The paper's 10 x 10 sensor grid (k = 20 m, 5 seed sensors).
  w->field = recnet::MakeSensorGrid(recnet::SensorGridOptions{});

  Program reach{ViewKind::kReach, kReachFanoutSource, {}};
  reach.options.num_nodes = topo.num_nodes;
  Program path{ViewKind::kPath, kPathSource, {}};
  path.options.num_nodes = topo.num_nodes;
  Program region{ViewKind::kRegion, kRegionSource, {}};
  region.options.field = w->field;
  w->programs = {reach, path, region};

  // Link churn is on the stub uplinks (the transit-stub latency class):
  // structurally alike links, so the round mix does not depend on which of
  // them a seed picks first.
  std::vector<size_t> uplinks;
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (topo.links[i].cost_ms == 10.0) uplinks.push_back(i);
  }
  Rng rng(seed);
  rng.Shuffle(&uplinks);

  // Triggers land within two hops of a seed sensor, so regions grow and
  // shrink; one seed sensor is renewed per round, which keeps every region
  // anchored.
  const recnet::SensorField& f = w->field;
  std::set<int> near_seeds(f.seed_sensors.begin(), f.seed_sensors.end());
  for (int hop = 0; hop < 2; ++hop) {
    std::set<int> next = near_seeds;
    for (int s : near_seeds) {
      next.insert(f.neighbors[static_cast<size_t>(s)].begin(),
                  f.neighbors[static_cast<size_t>(s)].end());
    }
    near_seeds = next;
  }
  std::vector<int> pool(near_seeds.begin(), near_seeds.end());
  auto trigger = [](int s) {
    return Change{Change::kInsertTtl, "triggered", Tuple::OfInts({s}),
                  kTriggerTtl};
  };

  Episode e;
  e.initial = LoadAll(topo, /*with_cost=*/true);
  for (int s : f.seed_sensors) e.initial.push_back(trigger(s));
  for (int i = 0; i < kMixedInitialTriggers; ++i) {
    e.initial.push_back(trigger(pool[rng.Below(pool.size())]));
  }

  for (int r = 0; r < kMixedRounds; ++r) {
    Step s;
    const recnet::TopoLink& uplink = topo.links[uplinks[static_cast<size_t>(r / 2) % uplinks.size()]];
    LinkFacts(r % 2 == 0 ? Change::kDelete : Change::kInsert, uplink, true, &s.changes);
    s.changes.push_back(trigger(f.seed_sensors[static_cast<size_t>(r) % f.seed_sensors.size()]));
    for (int t = 1; t < kMixedTriggersPerRound; ++t) {
      s.changes.push_back(trigger(pool[rng.Below(pool.size())]));
    }
    s.advance_to = r + 1;
    auto node = [&] {
      return static_cast<int>(rng.Below(static_cast<size_t>(topo.num_nodes)));
    };
    for (int i = 0; i < kPointReadsPerView; ++i) {
      int x = node(), y = node();
      s.reads.push_back(Read{Read::kContains, 0, "reachable", Pair(x, y)});
    }
    for (int i = 0; i < kPointReadsPerView; ++i) {
      int x = node(), y = node();
      s.reads.push_back(Read{Read::kLookup, 1, "minCost", Pair(x, y)});
    }
    s.reads.push_back(Read{Read::kScan, 2, "regionSizes", Tuple()});
    if ((r + 1) % kMixedCheckpointEvery == 0) {
      s.checkpoint = true;
      s.oracle = true;
    }
    e.steps.push_back(std::move(s));
  }
  e.steps.back().oracle = true;
  w->pass.push_back(std::move(e));
  // Two passes per run at least, so the tail has 10 samples beyond it at a
  // percentile above the median.
  w->min_passes = 2;
}

void DumpChanges(const std::vector<Change>& changes, std::ostringstream& out) {
  static const char* kKinds[] = {"insert", "delete", "insert_ttl"};
  for (const Change& c : changes) {
    out << "  " << kKinds[c.kind] << ' ' << c.relation << c.fact.ToString();
    if (c.kind == Change::kInsertTtl) out << " ttl=" << c.ttl;
    out << '\n';
  }
}

void DumpEpisode(const char* label, size_t index, const Episode& e,
                 std::ostringstream& out) {
  static const char* kReads[] = {"contains", "lookup", "scan"};
  out << label << ' ' << index << " initial\n";
  DumpChanges(e.initial, out);
  for (size_t i = 0; i < e.steps.size(); ++i) {
    const Step& s = e.steps[i];
    out << label << ' ' << index << " round " << i << '\n';
    DumpChanges(s.changes, out);
    if (s.advance_to >= 0) out << "  advance_time " << s.advance_to << '\n';
    out << "  apply\n";
    for (const Read& r : s.reads) {
      out << "  " << kReads[r.kind] << " view" << r.view << ' ' << r.name
          << (r.kind == Read::kScan ? std::string() : r.key.ToString())
          << '\n';
    }
    if (s.checkpoint) out << "  checkpoint\n";
    if (s.oracle) out << "  oracle\n";
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "reach-churn-absorption", "reach-churn-dred", "reach-churn-dred-4shard",
      "session-mixed", "session-mixed-4shard"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), name) == names.end()) return false;
  if (name.rfind("session-mixed", 0) == 0) {
    MakeSessionMixed(name, seed, &w);
  } else {
    MakeReachChurn(name, seed, &w);
  }
  *out = std::move(w);
  return true;
}

std::string DumpStream(const Workload& w) {
  std::ostringstream out;
  out << "workload " << w.name << " shards " << w.session.shards << '\n';
  for (const Program& p : w.programs) {
    out << "program prov=" << recnet::ProvModeName(p.options.runtime.prov)
        << " ship=" << recnet::ShipModeName(p.options.runtime.ship) << '\n'
        << p.source;
  }
  for (size_t i = 0; i < w.pass.size(); ++i) DumpEpisode("episode", i, w.pass[i], out);
  if (!w.probe.steps.empty()) DumpEpisode("probe", 0, w.probe, out);
  return out.str();
}

void FactModel::Apply(const Change& c) {
  if (c.relation == "link") {
    std::pair<int, int> key(static_cast<int>(c.fact.IntAt(0)),
                            static_cast<int>(c.fact.IntAt(1)));
    if (c.kind == Change::kDelete) {
      links_.erase(key);
    } else {
      links_.insert(key);
    }
  } else if (c.relation == "clink") {
    std::pair<int, int> key(static_cast<int>(c.fact.IntAt(0)),
                            static_cast<int>(c.fact.IntAt(1)));
    if (c.kind == Change::kDelete) {
      cost_links_.erase(key);
    } else {
      cost_links_[key] = c.fact.DoubleAt(2);
    }
  } else if (c.relation == "triggered") {
    int s = static_cast<int>(c.fact.IntAt(0));
    if (c.kind == Change::kDelete) {
      trigger_deadline_.erase(s);
    } else {
      trigger_deadline_[s] = c.kind == Change::kInsertTtl
                                 ? now_ + c.ttl
                                 : std::numeric_limits<double>::infinity();
    }
  }
}

void FactModel::AdvanceTo(double t) {
  now_ = t;
  for (auto it = trigger_deadline_.begin(); it != trigger_deadline_.end();) {
    it = it->second <= now_ ? trigger_deadline_.erase(it) : std::next(it);
  }
}

std::vector<bool> FactModel::Triggered(int num_sensors) const {
  std::vector<bool> out(static_cast<size_t>(num_sensors), false);
  for (const auto& [s, deadline] : trigger_deadline_) {
    out[static_cast<size_t>(s)] = true;
  }
  return out;
}

}  // namespace perfbench
