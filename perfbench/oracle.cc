#include "oracle.h"

#include <cstdio>

#include "queries/reference.h"
#include "topology/workload.h"

namespace perfbench {
namespace {

using Row = std::vector<double>;
using Rows = std::set<Row>;

// Relations each view kind exposes, with their declared arity.
struct Relation {
  const char* name;
  size_t arity;
};
std::vector<Relation> RelationsOf(const Program& p) {
  switch (p.kind) {
    case ViewKind::kReach:
      if (p.source.find("fanout") == std::string::npos) return {{"reachable", 2}};
      return {{"reachable", 2}, {"fanout", 2}};
    case ViewKind::kPath:
      return {{"minCost", 3}};
    case ViewKind::kRegion:
      return {{"activeRegion", 2}, {"regionSizes", 2}};
  }
  return {};
}

double Number(const recnet::Value& v) {
  return v.is_int() ? static_cast<double>(v.AsInt()) : v.AsDouble();
}

// The first `arity` columns of `t` as numbers; nullopt for a short or
// non-numeric row.
std::optional<Row> ToRow(const recnet::Tuple& t, size_t arity) {
  if (t.size() < arity) return std::nullopt;
  Row row;
  for (size_t i = 0; i < arity; ++i) {
    if (t.at(i).is_string()) return std::nullopt;
    row.push_back(Number(t.at(i)));
  }
  return row;
}

void Note(OracleReport* report, const std::string& what) {
  ++report->mismatches;
  if (report->first.empty()) report->first = what;
}

// Reads `name` from `view`; a failed scan or a malformed row is a mismatch.
bool ScanRows(const recnet::View* view, const Relation& rel, Rows* out,
              OracleReport* report) {
  auto scanned = view->Scan(rel.name);
  if (!scanned.ok()) {
    Note(report, std::string(rel.name) + ": " + scanned.status().ToString());
    return false;
  }
  const std::vector<recnet::Tuple> rows = *scanned;
  for (const recnet::Tuple& t : rows) {
    std::optional<Row> row = ToRow(t, rel.arity);
    if (row) {
      out->insert(std::move(*row));
    } else {
      Note(report, std::string(rel.name) + ": malformed row " + t.ToString());
    }
  }
  return true;
}

std::string RowText(const Row& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%g", i > 0 ? "," : "", row[i]);
    s += buf;
  }
  return s + ")";
}

void Compare(const std::string& name, const Rows& want, const Rows& got,
             OracleReport* report) {
  report->rows += want.size() + got.size();
  for (const Row& r : want) {
    if (got.count(r) == 0) Note(report, name + ": missing " + RowText(r));
  }
  for (const Row& r : got) {
    if (want.count(r) == 0) Note(report, name + ": extra " + RowText(r));
  }
}

}  // namespace

Oracle::Oracle(const Workload& w, const FactModel& model) : w_(w) {
  for (const Program& p : w.programs) {
    if (p.kind == ViewKind::kReach) {
      std::vector<recnet::LinkTuple> links;
      for (const auto& [a, b] : model.links()) links.push_back({a, b, 1.0});
      auto reach = recnet::ReferenceReachability(w.num_nodes, links);
      for (size_t x = 0; x < reach.size(); ++x) {
        for (int y : reach[x]) reachable_.insert({double(x), double(y)});
        if (!reach[x].empty()) fanout_.insert({double(x), double(reach[x].size())});
      }
    } else if (p.kind == ViewKind::kPath) {
      std::vector<recnet::LinkTuple> links;
      for (const auto& [key, cost] : model.cost_links()) {
        links.push_back({key.first, key.second, cost});
      }
      auto sp = recnet::ReferenceShortest(w.num_nodes, links);
      for (size_t x = 0; x < sp.min_cost.size(); ++x) {
        for (size_t y = 0; y < sp.min_cost[x].size(); ++y) {
          if (sp.min_cost[x][y]) {
            min_cost_.insert({double(x), double(y), *sp.min_cost[x][y]});
          }
        }
      }
    } else {
      auto regions = recnet::ReferenceRegions(
          w.field, model.Triggered(w.field.num_sensors));
      for (size_t r = 0; r < regions.size(); ++r) {
        for (int x : regions[r]) active_region_.insert({double(r), double(x)});
        if (!regions[r].empty()) {
          region_sizes_.insert({double(r), double(regions[r].size())});
        }
      }
    }
  }
}

const Oracle::Rows& Oracle::Expected(const std::string& name) const {
  if (name == "reachable") return reachable_;
  if (name == "fanout") return fanout_;
  if (name == "minCost") return min_cost_;
  if (name == "activeRegion") return active_region_;
  return region_sizes_;
}

OracleReport Oracle::CheckViews(const std::vector<recnet::View*>& views,
                                bool perturb) const {
  OracleReport report;
  for (size_t v = 0; v < w_.programs.size(); ++v) {
    for (const Relation& rel : RelationsOf(w_.programs[v])) {
      Rows want = Expected(rel.name);
      if (perturb && !want.empty()) {
        want.erase(want.begin());  // The view's correct row becomes "extra".
        perturb = false;
      }
      Rows got;
      if (ScanRows(views[v], rel, &got, &report)) {
        Compare(rel.name, want, got, &report);
      }
    }
  }
  return report;
}

bool Oracle::ReadMatches(const Read& read, const ReadAnswer& answer) const {
  const Rows& want = Expected(read.name);
  switch (read.kind) {
    case Read::kContains: {
      std::optional<Row> key = ToRow(read.key, read.key.size());
      return answer.status.ok() && key &&
             answer.contains == (want.count(*key) != 0);
    }
    case Read::kLookup: {
      std::optional<Row> key = ToRow(read.key, read.key.size());
      if (!key) return false;
      auto it = want.lower_bound(*key);
      bool present = it != want.end() &&
                     std::equal(key->begin(), key->end(), it->begin());
      if (answer.status.code() == recnet::StatusCode::kNotFound) return !present;
      std::optional<Row> got = ToRow(answer.row, it == want.end() ? 0 : it->size());
      return answer.status.ok() && present && got && *got == *it;
    }
    case Read::kScan: {
      if (!answer.status.ok()) return false;
      Rows got;
      for (const recnet::Tuple& t : answer.rows) {
        std::optional<Row> row = ToRow(t, want.empty() ? 2 : want.begin()->size());
        if (!row) return false;
        got.insert(std::move(*row));
      }
      return got == want;
    }
  }
  return false;
}

std::vector<ViewRows> ScanViews(const Workload& w,
                                const std::vector<recnet::View*>& views,
                                OracleReport* report) {
  std::vector<ViewRows> out(w.programs.size());
  for (size_t v = 0; v < w.programs.size(); ++v) {
    for (const Relation& rel : RelationsOf(w.programs[v])) {
      ScanRows(views[v], rel, &out[v][rel.name], report);
    }
  }
  return out;
}

OracleReport CompareScans(const Workload& w, const std::vector<ViewRows>& want,
                          const std::vector<recnet::View*>& got) {
  OracleReport report;
  std::vector<ViewRows> scanned = ScanViews(w, got, &report);
  for (size_t v = 0; v < w.programs.size(); ++v) {
    for (const auto& [name, rows] : want[v]) {
      Compare(name, rows, scanned[v][name], &report);
    }
  }
  return report;
}

}  // namespace perfbench
