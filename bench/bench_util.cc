#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "topology/transit_stub.h"

namespace recnet {
namespace bench {

BenchEnv GetBenchEnv() {
  BenchEnv env;
  const char* scale = std::getenv("RECNET_PAPER_SCALE");
  env.paper_scale = scale != nullptr && scale[0] == '1';
  const char* seed = std::getenv("RECNET_SEED");
  if (seed != nullptr) env.seed = std::strtoull(seed, nullptr, 10);
  return env;
}

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string json_prefix = "--json=";
    if (arg.compare(0, json_prefix.size(), json_prefix) == 0) {
      args.json_path = arg.substr(json_prefix.size());
      continue;
    }
    const std::string shards_prefix = "--shards=";
    if (arg.compare(0, shards_prefix.size(), shards_prefix) == 0) {
      args.shards =
          static_cast<int>(std::strtol(arg.c_str() + shards_prefix.size(),
                                       nullptr, 10));
      if (args.shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        std::exit(2);
      }
      continue;
    }
    const std::string faults_prefix = "--faults=";
    if (arg.compare(0, faults_prefix.size(), faults_prefix) == 0) {
      args.faults_spec = arg.substr(faults_prefix.size());
      auto plan = fault::ParseFaultSpec(args.faults_spec);
      if (!plan.ok()) {
        std::fprintf(stderr, "--faults: %s\n",
                     plan.status().ToString().c_str());
        std::exit(2);
      }
      args.faults = *plan;
      continue;
    }
    const std::string save_prefix = "--ckpt-save=";
    if (arg.compare(0, save_prefix.size(), save_prefix) == 0) {
      args.ckpt_save = arg.substr(save_prefix.size());
      continue;
    }
    const std::string load_prefix = "--ckpt-load=";
    if (arg.compare(0, load_prefix.size(), load_prefix) == 0) {
      args.ckpt_load = arg.substr(load_prefix.size());
      continue;
    }
    std::fprintf(stderr,
                 "unknown argument '%s'\nusage: %s [--json=PATH] "
                 "[--shards=N] [--faults=SPEC] "
                 "[--ckpt-save=PATH | --ckpt-load=PATH]\n"
                 "env: RECNET_PAPER_SCALE=1 (paper topology), RECNET_SEED=N\n",
                 arg.c_str(), argv[0]);
    std::exit(2);
  }
  if (!args.ckpt_save.empty() && !args.ckpt_load.empty()) {
    std::fprintf(stderr, "--ckpt-save and --ckpt-load are exclusive\n");
    std::exit(2);
  }
  return args;
}

Topology DefaultTopology(bool dense, const BenchEnv& env) {
  if (env.paper_scale) {
    TransitStubOptions options;
    options.dense = dense;
    options.seed = env.seed;
    return MakeTransitStub(options);  // 100 nodes, ~200 links.
  }
  return MakeTransitStubWithTargetLinks(dense ? 100 : 55, dense, env.seed);
}

std::vector<Strategy> AllStrategies() {
  return {
      {"DRed", ProvMode::kSet, ShipMode::kDirect},
      {"Relative Eager", ProvMode::kRelative, ShipMode::kEager},
      {"Relative Lazy", ProvMode::kRelative, ShipMode::kLazy},
      {"Absorption Eager", ProvMode::kAbsorption, ShipMode::kEager},
      {"Absorption Lazy", ProvMode::kAbsorption, ShipMode::kLazy},
  };
}

std::vector<Strategy> RegionStrategies() {
  return {
      {"DRed", ProvMode::kSet, ShipMode::kDirect},
      {"Absorption Eager", ProvMode::kAbsorption, ShipMode::kEager},
      {"Absorption Lazy", ProvMode::kAbsorption, ShipMode::kLazy},
  };
}

RuntimeOptions MakeOptions(const Strategy& strategy, uint64_t budget) {
  RuntimeOptions opts;
  opts.prov = strategy.prov;
  opts.ship = strategy.ship;
  opts.message_budget = budget;
  // Wall-clock cap per fixpoint run (the paper's 5-minute cap, scaled to
  // the reduced default topology); capped cells print as ">" values.
  opts.time_budget_s = 45;
  return opts;
}

FigurePrinter::FigurePrinter(std::string figure, std::string title,
                             std::string x_label,
                             std::vector<std::string> series)
    : figure_(std::move(figure)),
      title_(std::move(title)),
      x_label_(std::move(x_label)),
      series_(std::move(series)),
      start_(std::chrono::steady_clock::now()) {}

void FigurePrinter::Add(const std::string& series, double x,
                        const RunMetrics& m) {
  if (std::find(xs_.begin(), xs_.end(), x) == xs_.end()) xs_.push_back(x);
  cells_[{series, x}] = m;
}

void FigurePrinter::AddShardCell(const std::string& series, double x,
                                 int shards, const RunMetrics& m) {
  shard_cells_.push_back(ShardCell{series, x, shards, m});
  std::printf("  [shard sweep] %s x=%g shards=%d: %llu msgs, %llu kills, "
              "%.3fs wall%s\n",
              series.c_str(), x, shards,
              static_cast<unsigned long long>(m.messages),
              static_cast<unsigned long long>(m.kill_messages),
              m.wall_seconds, m.converged ? "" : " (>budget)");
}

void FigurePrinter::AddLossyCell(const std::string& series,
                                 const std::string& spec, int shards,
                                 const RunMetrics& m) {
  lossy_cells_.push_back(LossyCell{series, spec, shards, m});
  std::printf("  [lossy link] %s spec=%s shards=%d: dropped=%llu "
              "retried=%llu duplicated=%llu, %.3fs wall%s\n",
              series.c_str(), spec.c_str(), shards,
              static_cast<unsigned long long>(m.link_dropped),
              static_cast<unsigned long long>(m.link_retried),
              static_cast<unsigned long long>(m.link_duplicated),
              m.wall_seconds, m.converged ? "" : " (>budget)");
}

void FigurePrinter::PrintPanel(const std::string& panel_title,
                               double (*extract)(const RunMetrics&),
                               const char* format) const {
  std::printf("\n%s\n", panel_title.c_str());
  std::printf("%-18s", x_label_.c_str());
  for (const std::string& s : series_) std::printf(" %18s", s.c_str());
  std::printf("\n");
  for (double x : xs_) {
    std::printf("%-18g", x);
    for (const std::string& s : series_) {
      auto it = cells_.find({s, x});
      if (it == cells_.end()) {
        std::printf(" %18s", "-");
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), format, extract(it->second));
      if (!it->second.converged) {
        // The paper reports these as ">5min" / off-scale arrows. One byte
        // wider than buf so the prefix can never truncate.
        char capped[66];
        std::snprintf(capped, sizeof(capped), ">%s", buf);
        std::printf(" %18s", capped);
      } else {
        std::printf(" %18s", buf);
      }
    }
    std::printf("\n");
  }
}

namespace {

// JSON string escaping for the small identifier strings we emit (series
// names, titles): quotes, backslashes, and control characters.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// %.17g round-trips doubles exactly; trims to the shortest representation
// for typical metric values.
void PrintJsonDouble(std::FILE* f, double v) {
  std::fprintf(f, "%.17g", v);
}

}  // namespace

bool FigurePrinter::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  double total_wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"title\": \"%s\",\n",
               JsonEscape(figure_).c_str(), JsonEscape(title_).c_str());
  std::fprintf(f, "  \"x_label\": \"%s\",\n", JsonEscape(x_label_).c_str());
  std::fprintf(f, "  \"series\": [");
  for (size_t i = 0; i < series_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 JsonEscape(series_[i]).c_str());
  }
  std::fprintf(f, "],\n  \"x\": [");
  for (size_t i = 0; i < xs_.size(); ++i) {
    std::fprintf(f, "%s", i == 0 ? "" : ", ");
    PrintJsonDouble(f, xs_[i]);
  }
  std::fprintf(f, "],\n  \"cells\": [\n");
  bool first = true;
  for (const std::string& s : series_) {
    for (double x : xs_) {
      auto it = cells_.find({s, x});
      if (it == cells_.end()) continue;
      const RunMetrics& m = it->second;
      std::fprintf(f, "%s    {\"series\": \"%s\", \"x\": ",
                   first ? "" : ",\n", JsonEscape(s).c_str());
      first = false;
      PrintJsonDouble(f, x);
      std::fprintf(f, ", \"per_tuple_prov_bytes\": ");
      PrintJsonDouble(f, m.per_tuple_prov_bytes);
      std::fprintf(f, ", \"comm_mb\": ");
      PrintJsonDouble(f, m.comm_mb);
      std::fprintf(f, ", \"state_mb\": ");
      PrintJsonDouble(f, m.state_mb);
      std::fprintf(f, ", \"wall_seconds\": ");
      PrintJsonDouble(f, m.wall_seconds);
      std::fprintf(f, ", \"sim_seconds\": ");
      PrintJsonDouble(f, m.sim_seconds);
      std::fprintf(f,
                   ", \"messages\": %llu, \"kill_messages\": %llu, "
                   "\"batches\": %llu, \"aborted_runs\": %llu, "
                   "\"dropped_messages\": %llu, \"link_dropped\": %llu, "
                   "\"link_retried\": %llu, \"link_duplicated\": %llu, "
                   "\"recoveries\": %llu, \"converged\": %s",
                   static_cast<unsigned long long>(m.messages),
                   static_cast<unsigned long long>(m.kill_messages),
                   static_cast<unsigned long long>(m.batches),
                   static_cast<unsigned long long>(m.aborted_runs),
                   static_cast<unsigned long long>(m.dropped_messages),
                   static_cast<unsigned long long>(m.link_dropped),
                   static_cast<unsigned long long>(m.link_retried),
                   static_cast<unsigned long long>(m.link_duplicated),
                   static_cast<unsigned long long>(m.recoveries),
                   m.converged ? "true" : "false");
      // Concurrent-manager observability (appended keys; the trajectory
      // format is append-only for the cross-PR diff scripts).
      std::fprintf(f,
                   ", \"bdd_stripe_contention\": %llu, "
                   "\"bdd_store_segments\": %llu, \"bdd_cache_hit_rate\": ",
                   static_cast<unsigned long long>(m.bdd_stripe_contention),
                   static_cast<unsigned long long>(m.bdd_store_segments));
      PrintJsonDouble(f, m.bdd_cache_hit_rate);
      std::fprintf(f, ", \"ship_demotions\": %llu",
                   static_cast<unsigned long long>(m.ship_demotions));
      std::fprintf(f, "}");
    }
  }
  // Run metadata: enough to interpret a trajectory file on its own —
  // which drain configuration produced it, whether the binary was an
  // optimized build, and whether the run went through a checkpoint/restore
  // cycle. ("shards" at top level predates this block and is kept for the
  // cross-PR diff scripts.)
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::fprintf(f,
               "\n  ],\n  \"shards\": %d,\n  \"meta\": {\"shards\": %d, "
               "\"build_type\": \"%s\", \"checkpoint\": %s, "
               "\"faults\": \"%s\"},\n"
               "  \"shard_sweep\": [",
               shards_, shards_, build_type, checkpoint_ ? "true" : "false",
               JsonEscape(faults_).c_str());
  // The shard sweep pins the sharded drain's determinism contract into the
  // trajectory: for one workload, messages/kill_messages must be identical
  // down the sweep while wall_seconds reflects the parallel drain.
  for (size_t i = 0; i < shard_cells_.size(); ++i) {
    const ShardCell& c = shard_cells_[i];
    std::fprintf(f, "%s\n    {\"series\": \"%s\", \"x\": ",
                 i == 0 ? "" : ",", JsonEscape(c.series).c_str());
    PrintJsonDouble(f, c.x);
    std::fprintf(f, ", \"shards\": %d, \"messages\": %llu, "
                 "\"kill_messages\": %llu, \"comm_mb\": ",
                 c.shards,
                 static_cast<unsigned long long>(c.metrics.messages),
                 static_cast<unsigned long long>(c.metrics.kill_messages));
    PrintJsonDouble(f, c.metrics.comm_mb);
    std::fprintf(f, ", \"wall_seconds\": ");
    PrintJsonDouble(f, c.metrics.wall_seconds);
    std::fprintf(f, ", \"converged\": %s}",
                 c.metrics.converged ? "true" : "false");
  }
  std::fprintf(f, "%s", shard_cells_.empty() ? "]" : "\n  ]");
  // Lossy-link cells (appended block): the same workload under a seeded
  // drop/dup plan must converge to the lossless fixpoint; the counters pin
  // the fault schedule the seed produces, so injector changes show up as a
  // trajectory diff rather than silently reshaping the fault model.
  if (!lossy_cells_.empty()) {
    std::fprintf(f, ",\n  \"lossy_link\": [");
    for (size_t i = 0; i < lossy_cells_.size(); ++i) {
      const LossyCell& c = lossy_cells_[i];
      std::fprintf(f,
                   "%s\n    {\"series\": \"%s\", \"spec\": \"%s\", "
                   "\"shards\": %d, \"messages\": %llu, "
                   "\"link_dropped\": %llu, \"link_retried\": %llu, "
                   "\"link_duplicated\": %llu, \"wall_seconds\": ",
                   i == 0 ? "" : ",", JsonEscape(c.series).c_str(),
                   JsonEscape(c.spec).c_str(), c.shards,
                   static_cast<unsigned long long>(c.metrics.messages),
                   static_cast<unsigned long long>(c.metrics.link_dropped),
                   static_cast<unsigned long long>(c.metrics.link_retried),
                   static_cast<unsigned long long>(c.metrics.link_duplicated));
      PrintJsonDouble(f, c.metrics.wall_seconds);
      std::fprintf(f, ", \"converged\": %s}",
                   c.metrics.converged ? "true" : "false");
    }
    std::fprintf(f, "\n  ]");
  }
  std::fprintf(f, ",\n  \"total_wall_seconds\": ");
  PrintJsonDouble(f, total_wall);
  std::fprintf(f, "\n}\n");
  bool ok = std::fclose(f) == 0;
  if (ok) std::printf("wrote %s\n", path.c_str());
  return ok;
}

void FigurePrinter::PrintAll() const {
  std::printf("==== %s: %s ====\n", figure_.c_str(), title_.c_str());
  PrintPanel("(a) Per-tuple provenance overhead (B)",
             [](const RunMetrics& m) { return m.per_tuple_prov_bytes; },
             "%.1f");
  PrintPanel("(b) Communication overhead (MB)",
             [](const RunMetrics& m) { return m.comm_mb; }, "%.3f");
  PrintPanel("(c) State within operators (MB)",
             [](const RunMetrics& m) { return m.state_mb; }, "%.3f");
  PrintPanel("(d) Convergence time (s)",
             [](const RunMetrics& m) { return m.wall_seconds; }, "%.3f");
  std::printf("\n");
}

}  // namespace bench
}  // namespace recnet
