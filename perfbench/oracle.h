// Oracle comparison: every view of a session, and every read answer,
// against the centralized from-scratch references in
// src/queries/reference.h, computed over the live fact set the workload
// generator tracks.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/session.h"
#include "workload.h"

namespace perfbench {

struct OracleReport {
  // Rows compared (expected and actual rows of every checked relation).
  size_t rows = 0;
  // Rows present on one side only, plus unreadable relations.
  size_t mismatches = 0;
  // First difference, for the error message.
  std::string first;
};

// What one Read returned.
struct ReadAnswer {
  recnet::Status status;
  bool contains = false;             // kContains.
  recnet::Tuple row;                 // kLookup.
  std::vector<recnet::Tuple> rows;   // kScan.
};

class Oracle {
 public:
  // Computes the references of every view kind `w` holds over `model`.
  Oracle(const Workload& w, const FactModel& model);

  // Compares every relation of every view in `views` (parallel to
  // w.programs). With `perturb`, one expected row is dropped first, so a
  // working check must report a mismatch.
  OracleReport CheckViews(const std::vector<recnet::View*>& views,
                          bool perturb) const;

  // True when `answer` is what `read` should return. A Lookup of an absent
  // key answers NotFound; any other non-OK status is wrong.
  bool ReadMatches(const Read& read, const ReadAnswer& answer) const;

 private:
  using Row = std::vector<double>;
  using Rows = std::set<Row>;
  // Expected rows of relation `name`.
  const Rows& Expected(const std::string& name) const;

  const Workload& w_;
  Rows reachable_, fanout_, min_cost_, active_region_, region_sizes_;
};

// Every relation of one view, by name, as the oracle compares them.
using ViewRows = std::map<std::string, std::set<std::vector<double>>>;

// Scans every relation of every view in `views` (parallel to w.programs).
// Failed scans and malformed rows count in `report`.
std::vector<ViewRows> ScanViews(const Workload& w,
                                const std::vector<recnet::View*>& views,
                                OracleReport* report);

// Compares the scans of a session (a restored one) with those saved from
// another session holding the same programs (its original).
OracleReport CompareScans(const Workload& w, const std::vector<ViewRows>& want,
                          const std::vector<recnet::View*>& got);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
