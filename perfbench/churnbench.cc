// Session churn benchmark: replays one generated workload (see workload.h)
// through the public Session / View API as a closed loop with one client —
// the next change is sent only after Apply returns — and prints every
// metric by name with its unit. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 every call
// into a layer is also wrapped in a span, counters are sampled after every
// Apply, the per-layer metrics replace the end-to-end ones, and the spans
// are written as Chrome trace-event JSON.
//
//   churnbench --workload NAME --seed N --seconds S --trace 0|1
//              [--workdir DIR] [--commit SHA] [--episodes K]
//              [--dump-stream] [--perturb]
//
// Exit status: 0 when every output matched the oracle, 1 on any mismatch
// or unexpected error status, 2 on a usage error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "engine/session.h"
#include "net/router.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using recnet::Session;
using recnet::Status;
using recnet::View;

// Set-ups per run: at least this many, and more until they add up to
// kMinSetupSeconds, so that a cheap set-up is still a median of many.
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 1.0;
constexpr size_t kMaxSetups = 60;
// Timed rounds the benchmark thread runs on one CPU before moving on.
constexpr int64_t kRoundsPerCpu = 8;
// Samples the tail percentile leaves beyond it in a run's minimum passes.
constexpr size_t kTailBeyond = 10;
// Message budget of the mixed-batch probe, as a multiple of the largest
// single-change Apply of the timed stream.
constexpr uint64_t kProbeBudgetMultiple = 8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string commit = "unknown";
  size_t episodes = 0;  // 0: the whole pass.
  bool dump_stream = false;
  bool perturb = false;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Value at quantile q (nearest rank).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// One live session and its view handles (parallel to Workload::programs).
struct Live {
  std::unique_ptr<Session> session;
  std::vector<View*> views;
};

// Counters the code already exposes, summed over a session's views.
struct Counters {
  double messages = 0, kill_messages = 0, batches = 0, comm_mb = 0;
  double state_mb = 0, prov_bytes = 0, prov_weight = 0, ship_demotions = 0;
  double generations = 0, live_nodes = 0, gc_runs = 0, cache_hits = 0;
  double cache_lookups = 0, unique_probes = 0, store_segments = 0;
};

Counters Sample(const Live& l) {
  Counters c;
  for (const View* v : l.views) {
    recnet::RunMetrics m = v->Metrics();
    c.messages += static_cast<double>(m.messages);
    c.kill_messages += static_cast<double>(m.kill_messages);
    c.batches += static_cast<double>(m.batches);
    c.comm_mb += m.comm_mb;
    c.state_mb += m.state_mb;
    c.prov_bytes += m.per_tuple_prov_bytes * static_cast<double>(m.messages);
    c.prov_weight += static_cast<double>(m.messages);
    c.ship_demotions += static_cast<double>(m.ship_demotions);
  }
  recnet::Substrate& sub = *l.session->substrate();
  c.generations = static_cast<double>(sub.router().generations_begun());
  const recnet::bdd::Manager& mgr = *sub.bdd_manager();
  c.live_nodes = static_cast<double>(mgr.live_nodes());
  c.gc_runs = static_cast<double>(mgr.gc_runs());
  c.cache_hits = static_cast<double>(mgr.cache_hits());
  c.cache_lookups = static_cast<double>(mgr.cache_lookups());
  c.unique_probes = static_cast<double>(mgr.unique_probes());
  c.store_segments = static_cast<double>(mgr.store_segments());
  return c;
}

// Cross-peer messages of the session so far (cheap: no state walk).
double Messages(const Live& l) {
  const recnet::Router& router = l.session->substrate()->router();
  double total = 0;
  for (int ns = 0; ns < router.num_namespaces(); ++ns) {
    total += static_cast<double>(router.stats(ns).messages);
  }
  return total;
}

struct SetupTime {
  double total_s = 0, compile_s = 0, bulk_apply_s = 0;
};

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

class Bench {
 public:
  Bench(const Workload& w, const Options& o) : w_(w), o_(o), tracer_(o.trace) {}

  int Run();

 private:
  // Counts one call's status; a non-OK status is a failed operation and an
  // error.
  bool Count(const Status& s, const char* what);
  // Set-up: from an empty Session to the first converged Apply over
  // `initial`. Counts the ingest calls; returns the first failed AddProgram
  // status or else the set-up Apply's status, for the caller to count.
  Status Setup(const std::vector<Change>& initial, uint64_t message_budget,
             Live* out, FactModel* model, SetupTime* time);
  Status Ingest(Live& l, const Change& c);
  void RunEpisode(const Episode& e, bool first_pass, bool save_for_restore);
  void CheckOracle(const Live& l, const FactModel& model, const char* where);
  void CountReport(const OracleReport& r, const char* where);
  // Counts a mixed-batch probe Apply. Exhausting the message budget is a
  // failed operation (the known DRed defect); any other non-OK status is
  // also an error.
  bool CountProbe(const Status& s, const char* what);
  void SaveForRestore(const Live& l, const FactModel& model);
  void CheckRestore();
  void RunProbe();
  // Moves the benchmark thread to the next CPU it may run on, so that a
  // run visits every CPU: neighbours on a shared host slow single CPUs for
  // minutes at a time, and a single-threaded run left on such a CPU reads
  // slow throughout (RESULTS.md: interleaved runs with and without this
  // spread 0.06-0.17 against 0.17-0.26 on reach-churn-absorption).
  // Single-shard workloads only: shard workers inherit the caller's mask,
  // so a multi-shard run keeps every CPU.
  void RotateCpu();
  void AddSetup(const SetupTime& t) {
    setup_s_.push_back(t.total_s);
    compile_s_.push_back(t.compile_s);
    bulk_apply_s_.push_back(t.bulk_apply_s);
  }
  void Report(int passes, size_t episodes);

  const Workload& w_;
  const Options& o_;
  Tracer tracer_;
  cpu_set_t allowed_;
  int next_cpu_ = 0;
  std::string snapshot_path_;
  // Snapshot of the first episode's end state, with the scans and fact
  // model it must restore to (workloads that checkpoint only).
  std::string restore_path_;
  bool saved_for_restore_ = false;
  std::vector<ViewRows> restore_scans_;
  FactModel restore_model_;
  int64_t round_ = 0;

  // Correctness.
  uint64_t attempted_ = 0, failed_ = 0;
  uint64_t errors_ = 0;  // Mismatches and unexpected statuses: exit 1.
  std::string first_error_;
  uint64_t probe_failed_ = 0;  // Probe Applies over the budget.
  std::string probe_note_;

  // Timings.
  std::vector<double> setup_s_, compile_s_, bulk_apply_s_;
  std::vector<double> apply_ms_, read_us_, checkpoint_ms_, snapshot_mb_;
  double loop_s_ = 0, apply_s_ = 0, apply_cpu_s_ = 0;
  double changes_ = 0;
  size_t pass_applies_ = 0;  // Applies in one pass.
  double restore_ms_ = 0;

  // Exact counts of the first pass (timed rounds only).
  double pass_changes_ = 0, pass_loop_applies_ = 0;
  Counters pass_delta_;
  std::vector<double> end_state_mb_, end_prov_, end_live_nodes_;
  double end_segments_ = 0, demotions_ = 0;
  double largest_change_msgs_ = 0;
  double live_nodes_peak_ = 0, state_mb_peak_ = 0;
  double peak_rss_mb_ = 0;
  double overhead_pct_ = 0;
};

bool Bench::Count(const Status& s, const char* what) {
  ++attempted_;
  if (s.ok()) return true;
  ++failed_;
  ++errors_;
  if (first_error_.empty()) first_error_ = std::string(what) + ": " + s.ToString();
  return false;
}

Status Bench::Ingest(Live& l, const Change& c) {
  switch (c.kind) {
    case Change::kInsert: {
      Scope span(&tracer_, "Insert");
      return l.session->Insert(c.relation, c.fact);
    }
    case Change::kDelete: {
      Scope span(&tracer_, "Delete");
      return l.session->Delete(c.relation, c.fact);
    }
    case Change::kInsertTtl: {
      Scope span(&tracer_, "InsertWithTtl");
      return l.session->InsertWithTtl(c.relation, c.fact, c.ttl);
    }
  }
  return Status::Internal("unknown change kind");
}

Status Bench::Setup(const std::vector<Change>& initial, uint64_t message_budget,
                    Live* out, FactModel* model, SetupTime* time) {
  tracer_.set_round(-1);
  Scope span(&tracer_, "Setup");
  Clock::time_point t0 = Clock::now();
  out->session = std::make_unique<Session>(w_.session);
  out->views.clear();
  for (const Program& p : w_.programs) {
    recnet::EngineOptions options = p.options;
    if (message_budget > 0) options.runtime.message_budget = message_budget;
    Scope add(&tracer_, "AddProgram");
    auto view = out->session->AddProgram(p.source, options);
    if (!view.ok()) return view.status();
    out->views.push_back(*view);
  }
  Clock::time_point t1 = Clock::now();
  for (const Change& c : initial) {
    Count(Ingest(*out, c), "Insert");
    model->Apply(c);
  }
  Clock::time_point t2 = Clock::now();
  Status applied;
  {
    Scope apply(&tracer_, "Apply");
    applied = out->session->Apply();
  }
  Clock::time_point t3 = Clock::now();
  time->total_s = Seconds(t0, t3);
  time->compile_s = Seconds(t0, t1);
  time->bulk_apply_s = Seconds(t2, t3);
  return applied;
}

void Bench::CountReport(const OracleReport& r, const char* where) {
  attempted_ += r.rows;
  failed_ += r.mismatches;
  if (r.mismatches > 0) {
    errors_ += r.mismatches;
    if (first_error_.empty()) first_error_ = std::string(where) + ": " + r.first;
  }
}

bool Bench::CountProbe(const Status& s, const char* what) {
  if (s.code() != recnet::StatusCode::kResourceExhausted) return Count(s, what);
  ++attempted_;
  ++failed_;
  ++probe_failed_;
  return false;
}

void Bench::CheckOracle(const Live& l, const FactModel& model,
                        const char* where) {
  CountReport(Oracle(w_, model).CheckViews(l.views, o_.perturb), where);
}

void Bench::RotateCpu() {
  if (w_.session.shards != 1 || CPU_COUNT(&allowed_) <= 1) return;
  for (int tries = 0; tries < CPU_SETSIZE; ++tries) {
    int cpu = next_cpu_++ % CPU_SETSIZE;
    if (!CPU_ISSET(cpu, &allowed_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

void Bench::RunEpisode(const Episode& e, bool first_pass, bool save_for_restore) {
  RotateCpu();
  Live l;
  FactModel model;
  SetupTime t;
  if (!Count(Setup(e.initial, 0, &l, &model, &t), "set-up")) return;
  AddSetup(t);
  Counters start = first_pass ? Sample(l) : Counters();
  live_nodes_peak_ = std::max(live_nodes_peak_, start.live_nodes);

  for (const Step& s : e.steps) {
    if (++round_ % kRoundsPerCpu == 0) RotateCpu();
    tracer_.set_round(round_);
    Scope round_span(&tracer_, "Round");
    double msgs_before = first_pass ? Messages(l) : 0;
    Clock::time_point t0 = Clock::now();
    for (const Change& c : s.changes) {
      Count(Ingest(l, c), "ingest");
      model.Apply(c);
    }
    if (s.advance_to >= 0) {
      Scope span(&tracer_, "AdvanceTime");
      Count(l.session->AdvanceTime(s.advance_to), "AdvanceTime");
      model.AdvanceTo(s.advance_to);
    }
    double cpu0 = tracer_.enabled() ? CpuSeconds() : 0;
    Clock::time_point a0 = Clock::now();
    Status applied;
    {
      Scope span(&tracer_, "Apply");
      applied = l.session->Apply();
    }
    Clock::time_point a1 = Clock::now();
    if (tracer_.enabled()) apply_cpu_s_ += CpuSeconds() - cpu0;
    Count(applied, "Apply");

    std::vector<ReadAnswer> answers(s.reads.size());
    std::vector<bool> seen(w_.programs.size(), false);
    for (size_t i = 0; i < s.reads.size(); ++i) {
      const Read& r = s.reads[i];
      const View* v = l.views[r.view];
      bool first = !seen[r.view];
      seen[r.view] = true;
      Clock::time_point r0 = Clock::now();
      switch (r.kind) {
        case Read::kContains: {
          Scope span(&tracer_, "Contains", first);
          auto got = v->Contains(r.name, r.key);
          answers[i].status = got.status();
          if (got.ok()) answers[i].contains = *got;
          break;
        }
        case Read::kLookup: {
          Scope span(&tracer_, "Lookup", first);
          auto got = v->Lookup(r.name, r.key);
          answers[i].status = got.status();
          if (got.ok()) answers[i].row = *got;
          break;
        }
        case Read::kScan: {
          Scope span(&tracer_, "Scan", first);
          auto got = v->Scan(r.name);
          answers[i].status = got.status();
          if (got.ok()) answers[i].rows = *got;
          break;
        }
      }
      read_us_.push_back(Seconds(r0, Clock::now()) * 1e6);
    }
    if (s.checkpoint) {
      Clock::time_point c0 = Clock::now();
      Status saved;
      {
        Scope span(&tracer_, "Checkpoint");
        saved = l.session->Checkpoint(snapshot_path_);
      }
      Clock::time_point c1 = Clock::now();
      if (Count(saved, "Checkpoint")) {
        checkpoint_ms_.push_back(Seconds(c0, c1) * 1e3);
        std::error_code ec;
        auto bytes = std::filesystem::file_size(snapshot_path_, ec);
        if (!ec) snapshot_mb_.push_back(static_cast<double>(bytes) / (1024.0 * 1024.0));
      }
    }
    Clock::time_point t1 = Clock::now();

    // Untimed from here on.
    loop_s_ += Seconds(t0, t1);
    apply_s_ += Seconds(a0, a1);
    apply_ms_.push_back(Seconds(a0, a1) * 1e3);
    changes_ += static_cast<double>(s.changes.size());
    if (!s.reads.empty()) {
      Oracle oracle(w_, model);
      for (size_t i = 0; i < s.reads.size(); ++i) {
        ++attempted_;
        if (oracle.ReadMatches(s.reads[i], answers[i])) continue;
        ++failed_;
        ++errors_;
        if (first_error_.empty()) {
          first_error_ = "wrong answer from " + s.reads[i].name + " read " +
                         s.reads[i].key.ToString() + " (" +
                         answers[i].status.ToString() + ")";
        }
      }
    }
    if (first_pass) {
      double msgs = Messages(l) - msgs_before;
      bool single_change = s.changes.size() == 2 && s.reads.empty() &&
                           s.changes[0].kind == Change::kDelete;
      if (single_change) largest_change_msgs_ = std::max(largest_change_msgs_, msgs);
      pass_changes_ += static_cast<double>(s.changes.size());
      pass_loop_applies_ += 1;
    }
    if (tracer_.enabled()) {
      Counters c = Sample(l);
      live_nodes_peak_ = std::max(live_nodes_peak_, c.live_nodes);
      state_mb_peak_ = std::max(state_mb_peak_, c.state_mb);
    }
    if (s.oracle) CheckOracle(l, model, "oracle");
  }
  if (e.steps.empty() || !e.steps.back().oracle) CheckOracle(l, model, "oracle");

  if (first_pass) {
    Counters end = Sample(l);
    Counters& d = pass_delta_;
    d.messages += end.messages - start.messages;
    d.kill_messages += end.kill_messages - start.kill_messages;
    d.batches += end.batches - start.batches;
    d.comm_mb += end.comm_mb - start.comm_mb;
    d.generations += end.generations - start.generations;
    d.gc_runs += end.gc_runs - start.gc_runs;
    d.cache_hits += end.cache_hits - start.cache_hits;
    d.cache_lookups += end.cache_lookups - start.cache_lookups;
    d.unique_probes += end.unique_probes - start.unique_probes;
    end_state_mb_.push_back(end.state_mb);
    end_prov_.push_back(end.prov_weight > 0 ? end.prov_bytes / end.prov_weight : 0);
    end_live_nodes_.push_back(end.live_nodes);
    end_segments_ = std::max(end_segments_, end.store_segments);
    demotions_ += end.ship_demotions;
    live_nodes_peak_ = std::max(live_nodes_peak_, end.live_nodes);
  }
  if (save_for_restore) SaveForRestore(l, model);
}

// Checkpoints the episode's end state (untimed) and keeps what the restored
// session must scan, so that the session itself can be freed before the
// peak RSS is read.
void Bench::SaveForRestore(const Live& l, const FactModel& model) {
  bool checkpointed = false;
  for (const Step& s : w_.pass.front().steps) checkpointed |= s.checkpoint;
  if (!checkpointed) return;
  if (!Count(l.session->Checkpoint(restore_path_), "Checkpoint")) return;
  OracleReport r;
  restore_scans_ = ScanViews(w_, l.views, &r);
  CountReport(r, "scan before checkpoint");
  restore_model_ = model;
  saved_for_restore_ = true;
}

// Restores the saved snapshot into a fresh session (timed) and checks that
// it scans identically to the original and to the oracle.
void Bench::CheckRestore() {
  if (!saved_for_restore_) return;
  Live restored;
  restored.session = std::make_unique<Session>(w_.session);
  tracer_.set_round(-1);
  Clock::time_point t0 = Clock::now();
  Status s;
  {
    Scope span(&tracer_, "Restore");
    s = restored.session->Restore(restore_path_);
  }
  restore_ms_ = Seconds(t0, Clock::now()) * 1e3;
  if (!Count(s, "Restore")) return;
  for (size_t i = 0; i < restored.session->num_views(); ++i) {
    restored.views.push_back(restored.session->view(i));
  }
  if (restored.views.size() != w_.programs.size()) {
    Count(Status::Internal("restored session has a different view count"), "Restore");
    return;
  }
  CountReport(CompareScans(w_, restore_scans_, restored.views), "restore");
  CheckOracle(restored, restore_model_, "restored");
}

// The mixed-batch probe: each Apply carries one failure and one recovery,
// under a message budget of kProbeBudgetMultiple x the largest
// single-change Apply of the timed stream. Every probe operation counts in
// attempted/failed. An Apply that exhausts the budget (the known DRed
// defect) fails, and so does every view it leaves stale; a wrong view on a
// session that never aborted is also a correctness error.
void Bench::RunProbe() {
  if (w_.probe.steps.empty()) return;
  uint64_t budget = std::max<uint64_t>(
      1, static_cast<uint64_t>(largest_change_msgs_) * kProbeBudgetMultiple);
  Live l;
  FactModel model;
  SetupTime unused;
  std::string outcomes;
  // The set-up Apply runs under the budget too.
  if (CountProbe(Setup(w_.probe.initial, budget, &l, &model, &unused),
                 "probe set-up")) {
    bool aborted = false;
    for (const Step& s : w_.probe.steps) {
      for (const Change& c : s.changes) {
        Count(Ingest(l, c), "probe ingest");
        model.Apply(c);
      }
      if (!CountProbe(l.session->Apply(), "probe Apply")) {
        aborted = true;
        outcomes += " failed";
        continue;
      }
      OracleReport r = Oracle(w_, model).CheckViews(l.views, false);
      if (r.mismatches == 0) {
        attempted_ += r.rows;
        outcomes += " ok";
      } else if (aborted) {
        // The view lost the failed Apply's dropped messages: staleness is
        // the abort's consequence, not a new error.
        attempted_ += r.rows;
        failed_ += r.mismatches;
        outcomes += " stale";
      } else {
        CountReport(r, "probe");
        outcomes += " wrong";
      }
    }
  } else {
    outcomes = " set-up failed";
  }
  char note[256];
  std::snprintf(note, sizeof(note),
                "%zu Applies under message_budget %llu (%llu x the largest "
                "single-change Apply, %.0f msgs): %llu over budget:%s",
                w_.probe.steps.size(), static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(kProbeBudgetMultiple),
                largest_change_msgs_,
                static_cast<unsigned long long>(probe_failed_), outcomes.c_str());
  probe_note_ = note;
}

int Bench::Run() {
  std::error_code ec;
  std::filesystem::create_directories(o_.workdir, ec);
  CPU_ZERO(&allowed_);
  sched_getaffinity(0, sizeof(allowed_), &allowed_);
  snapshot_path_ = o_.workdir + "/snapshot.bin";
  restore_path_ = o_.workdir + "/restore.bin";

  std::vector<Episode> pass = w_.pass;
  if (o_.episodes > 0 && o_.episodes < pass.size()) pass.resize(o_.episodes);
  for (const Episode& e : pass) pass_applies_ += e.steps.size();

  // Whole passes, at least one, while another fits in --seconds.
  Clock::time_point start = Clock::now();
  int passes = 0;
  for (;;) {
    for (size_t i = 0; i < pass.size(); ++i) {
      RunEpisode(pass[i], passes == 0, passes == 0 && i == 0);
    }
    ++passes;
    double elapsed = Seconds(start, Clock::now());
    if (passes >= w_.min_passes && elapsed + elapsed / passes > o_.seconds) break;
  }
  while (setup_s_.size() < kMaxSetups &&
         (setup_s_.size() < kMinSetups ||
          Sum(setup_s_) < kMinSetupSeconds)) {
    Live l;
    FactModel model;
    SetupTime t;
    RotateCpu();
    if (!Count(Setup(pass.front().initial, 0, &l, &model, &t), "set-up")) break;
    AddSetup(t);
  }
  peak_rss_mb_ = PeakRssMb();

  CheckRestore();
  RunProbe();

  if (tracer_.enabled()) {
    // Cost of one span, measured on a scratch tracer, times the spans of
    // the timed loop, as a share of the loop.
    Tracer scratch(true);
    constexpr int kCalibrate = 100000;
    Clock::time_point c0 = Clock::now();
    for (int i = 0; i < kCalibrate; ++i) scratch.End(scratch.Begin("calibrate"));
    double per_span = Seconds(c0, Clock::now()) / kCalibrate;
    size_t loop_spans = 0;
    for (const Span& span : tracer_.spans()) loop_spans += span.round >= 0 ? 1 : 0;
    overhead_pct_ = 100.0 * per_span * static_cast<double>(loop_spans) /
                    std::max(loop_s_, 1e-9);
  }
  Report(passes, pass.size());
  std::filesystem::remove(snapshot_path_, ec);
  std::filesystem::remove(restore_path_, ec);
  if (tracer_.enabled()) {
    std::string path = o_.workdir + "/trace-" + w_.name + "-seed" +
                       std::to_string(o_.seed) + ".json";
    if (tracer_.Write(path)) {
      std::fprintf(stderr, "trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write trace %s\n", path.c_str());
    }
  }
  return errors_ == 0 ? 0 : 1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

// Per-layer metric -> the end-to-end metric it should move, and on which
// workloads (the prediction a later change is judged against).
struct LayerTag {
  const char* prefix;
  const char* moves;
  const char* on;
};
constexpr LayerTag kLayerTags[] = {
    {"datalog.", "setup_s", "all"},
    {"engine.ingest_us", "setup_s,updates_per_s", "session-mixed"},
    {"engine.bulk_apply_s", "setup_s,updates_per_s", "session-mixed"},
    {"engine.apply_share", "updates_per_s", "all"},
    {"engine.", "updates_per_s (reads are in the loop)", "session-mixed"},
    {"net.drain_cpu_per_wall", "apply_p50_ms",
     "reach-churn-dred-4shard,session-mixed-4shard"},
    {"net.", "apply_p50_ms", "reach-churn-dred,reach-churn-dred-4shard"},
    {"operators.", "state_mb,apply_tail_ms", "reach-churn-absorption"},
    {"provenance.", "msgs_per_update,apply_p50_ms",
     "reach-churn-absorption,session-mixed"},
    {"bdd.", "updates_per_s,apply_tail_ms,peak_rss_mb", "reach-churn-absorption"},
    {"persist.", "updates_per_s (checkpoints are in the loop)", "session-mixed"},
    {"trace.", "-", "-"},
};

const LayerTag& TagOf(const std::string& name) {
  for (const LayerTag& t : kLayerTags) {
    if (name.rfind(t.prefix, 0) == 0) return t;
  }
  return kLayerTags[std::size(kLayerTags) - 1];
}

double SpanMedianUs(const std::vector<Span>& spans,
                    std::initializer_list<const char*> names, bool first_only) {
  std::vector<double> us;
  for (const Span& s : spans) {
    if (first_only && !s.first_read) continue;
    for (const char* n : names) {
      if (std::strcmp(s.name, n) == 0) {
        us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        break;
      }
    }
  }
  return Median(us);
}

void Bench::Report(int passes, size_t episodes) {
  // The tail is the quantile that leaves kTailBeyond samples beyond it in
  // the passes every run makes, so it does not move with the number of
  // passes a host fits into --seconds.
  auto tail_q = [](size_t n) {
    return n > kTailBeyond
               ? static_cast<double>(n - kTailBeyond) / static_cast<double>(n)
               : 1.0;
  };
  size_t reads_per_pass = 0;
  for (size_t i = 0; i < episodes; ++i) {
    for (const Step& s : w_.pass[i].steps) reads_per_pass += s.reads.size();
  }
  size_t min_passes = static_cast<size_t>(w_.min_passes);
  double apply_q = tail_q(pass_applies_ * min_passes);
  double read_q = tail_q(reads_per_pass * min_passes);
  auto pct = [](double q, size_t n) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%.1f of %zu samples", 100.0 * q, n);
    return std::string(buf);
  };
  const Counters& d = pass_delta_;
  double per_apply = std::max(pass_loop_applies_, 1.0);
  double per_change = std::max(pass_changes_, 1.0);

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s_), "s",
       "median of " + std::to_string(setup_s_.size()) + " set-ups"},
      {"updates_per_s", changes_ / std::max(loop_s_, 1e-9), "1/s",
       "base-fact changes per second of the timed loop"},
      {"apply_p50_ms", Median(apply_ms_), "ms", pct(0.5, apply_ms_.size())},
      {"apply_tail_ms", Quantile(apply_ms_, apply_q), "ms",
       pct(apply_q, apply_ms_.size())},
      {"msgs_per_update", d.messages / per_change, "count", "cross-peer messages"},
      {"comm_kb_per_update", d.comm_mb * 1024.0 / per_change, "KB", ""},
      {"state_mb", Median(end_state_mb_), "MB", "operator state at stream end"},
      {"prov_bytes_per_tuple", Median(end_prov_), "B", "0 under DRed"},
      {"peak_rss_mb", peak_rss_mb_, "MB", "before the restore check and the probe"},
  };
  std::vector<Metric> extra;
  if (!read_us_.empty()) {
    extra.push_back({"read_p50_us", Median(read_us_), "us", pct(0.5, read_us_.size())});
    extra.push_back({"read_tail_us", Quantile(read_us_, read_q), "us",
                     pct(read_q, read_us_.size())});
  }
  if (!checkpoint_ms_.empty()) {
    extra.push_back({"checkpoint_ms", Median(checkpoint_ms_), "ms",
                     "median of " + std::to_string(checkpoint_ms_.size())});
  }
  extra.push_back({"failed_frac",
                   static_cast<double>(failed_) /
                       static_cast<double>(std::max<uint64_t>(attempted_, 1)),
                   "ratio",
                   std::to_string(failed_) + " of " + std::to_string(attempted_) +
                       " operations, mixed-batch probe included"});

  const std::vector<Span>& spans = tracer_.spans();
  double snapshot_mb = Median(snapshot_mb_), ckpt_ms = Median(checkpoint_ms_);
  std::vector<Metric> layer = {
      {"datalog.compile_ms", Median(compile_s_) * 1e3, "ms", "AddProgram, per set-up"},
      {"engine.ingest_us",
       SpanMedianUs(spans, {"Insert", "Delete", "InsertWithTtl", "AdvanceTime"}, false),
       "us", "median per call"},
      {"engine.bulk_apply_s", Median(bulk_apply_s_), "s", "set-up Apply"},
      {"engine.apply_share", apply_s_ / std::max(loop_s_, 1e-9), "ratio", ""},
      {"engine.contains_us", SpanMedianUs(spans, {"Contains"}, false), "us", ""},
      {"engine.lookup_us", SpanMedianUs(spans, {"Lookup"}, false), "us", ""},
      {"engine.scan_us", SpanMedianUs(spans, {"Scan"}, false), "us", ""},
      {"engine.read_first_us", SpanMedianUs(spans, {"Contains", "Lookup", "Scan"}, true),
       "us", "first read of a view after an Apply"},
      {"net.msgs_per_apply", d.messages / per_apply, "count", ""},
      {"net.batches_per_apply", d.batches / per_apply, "count", ""},
      {"net.msgs_per_batch", d.batches > 0 ? d.messages / d.batches : 0, "count", ""},
      {"net.generations_per_apply", d.generations / per_apply, "count", ""},
      {"net.cross_peer_kb_per_apply", d.comm_mb * 1024.0 / per_apply, "KB", ""},
      {"net.drain_cpu_per_wall", apply_cpu_s_ / std::max(apply_s_, 1e-9), "ratio",
       "process CPU / wall inside Apply"},
      {"operators.state_mb_peak", state_mb_peak_, "MB", "sampled after each Apply"},
      {"operators.ship_demotions", demotions_, "count", ""},
      {"provenance.kill_msgs_per_apply", d.kill_messages / per_apply, "count", ""},
      {"provenance.bytes_per_tuple", Median(end_prov_), "B", ""},
      {"bdd.live_nodes_peak", live_nodes_peak_, "count", ""},
      {"bdd.live_nodes_end", Median(end_live_nodes_), "count", ""},
      {"bdd.gc_runs", d.gc_runs, "count", "timed rounds of one pass"},
      {"bdd.cache_hit_rate", d.cache_lookups > 0 ? d.cache_hits / d.cache_lookups : 0,
       "ratio", ""},
      {"bdd.cache_lookups_per_apply", d.cache_lookups / per_apply, "count", ""},
      {"bdd.unique_probes_per_apply", d.unique_probes / per_apply, "count", ""},
      {"bdd.store_segments", end_segments_, "count", ""},
      {"persist.snapshot_mb", snapshot_mb, "MB", ""},
      {"persist.checkpoint_mb_per_s", ckpt_ms > 0 ? snapshot_mb / (ckpt_ms / 1e3) : 0,
       "MB/s", ""},
      {"persist.restore_ms", restore_ms_, "ms", ""},
      {"trace.overhead_pct", overhead_pct_, "%", "span recording / timed loop"},
  };

  std::printf("# host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s commit=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(), __VERSION__,
              PERFBENCH_BUILD_TYPE, o_.commit.c_str());
  std::printf("# workload=%s seed=%llu trace=%d passes=%d episodes_per_pass=%zu "
              "applies=%zu changes=%.0f loop_s=%.3f\n",
              w_.name.c_str(), static_cast<unsigned long long>(o_.seed),
              o_.trace ? 1 : 0, passes, episodes, apply_ms_.size(), changes_, loop_s_);
  for (const std::vector<Metric>* list : {&e2e, &extra}) {
    for (const Metric& m : *list) {
      std::printf("metric %s %.6g %s  (%s)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  if (!probe_note_.empty()) std::printf("# mixed-batch probe: %s\n", probe_note_.c_str());
  if (o_.trace) {
    for (const Metric& m : layer) {
      const LayerTag& tag = TagOf(m.name);
      std::printf("layer %s %.6g %s  moves=%s on=%s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), tag.moves, tag.on, m.note.empty() ? "" : "  ",
                  m.note.c_str());
    }
  }
  if (errors_ > 0) {
    std::printf("# ERROR: %llu mismatches or unexpected statuses; first: %s\n",
                static_cast<unsigned long long>(errors_), first_error_.c_str());
  }

  const std::vector<Metric>& out = o_.trace ? layer : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              errors_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < out.size(); ++i) {
    double v = std::isfinite(out[i].value) ? out[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out[i].name.c_str(), v, out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "churnbench: %s\nusage: churnbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--commit SHA] "
               "[--episodes K] [--dump-stream] [--perturb]\nworkloads:",
               msg);
  for (const std::string& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUnsigned(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t n = 0;
    if (flag == "--dump-stream") {
      o.dump_stream = true;
      continue;
    }
    if (flag == "--perturb") {
      o.perturb = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + flag).c_str());
    ++i;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &o.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &n) || n == 0 || n > 3600) return Usage("bad --seconds");
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &n) || n > 1) return Usage("bad --trace");
      o.trace = n == 1;
      have_trace = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--episodes") {
      if (!ParseUnsigned(value, &n)) return Usage("bad --episodes");
      o.episodes = static_cast<size_t>(n);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");
  Workload w;
  if (!MakeWorkload(o.workload, o.seed, &w)) return Usage("unknown workload");
  if (o.dump_stream) {
    std::fputs(DumpStream(w).c_str(), stdout);
    return 0;
  }
  if (!have_seconds || !have_trace) return Usage("--seconds and --trace are required");
  Bench bench(w, o);
  return bench.Run();
}
