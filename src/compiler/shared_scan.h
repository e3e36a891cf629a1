// Multi-path evaluation with a single I/O-performing operator.
//
// The paper's Sec. 7 outlook: "Our method can be easily extended to
// evaluate multiple location paths with a single I/O-performing
// operator." This module implements that extension for the scan case: one
// sequential pass over the document drives any number of location paths
// at once. Each path keeps its own XStep chain and XAssembly (R/S
// structures), all sharing the plan-wide current cluster; the driver
// feeds every path its context instances and speculative seeds per
// visited cluster and drains full instances after each cluster.
//
// A query like Q7 — three count() paths — thus pays ONE document scan
// instead of three.
#ifndef NAVPATH_COMPILER_SHARED_SCAN_H_
#define NAVPATH_COMPILER_SHARED_SCAN_H_

#include <deque>

#include "compiler/executor.h"

namespace navpath {

/// A PathOperator whose input is pushed by an external driver. Returning
/// false only means "nothing buffered right now"; the driver may push
/// more and pull again.
///
/// Contract: Open() before the first Push(). Re-opening with instances
/// still queued is refused — silently discarding them would make the
/// consumer miss input the driver already accounted for (and charged the
/// simulated clock for). A driver that genuinely wants to abandon queued
/// input drains it first.
class FeedOperator : public PathOperator {
 public:
  Status Open() override {
    if (!queue_.empty()) {
      return Status::InvalidArgument(
          "FeedOperator::Open with instances still queued; drain first");
    }
    return Status::OK();
  }
  Result<bool> Next(PathInstance* out) override {
    if (queue_.empty()) return false;
    *out = queue_.front();
    queue_.pop_front();
    return true;
  }
  Status Close() override { return Status::OK(); }

  void Push(const PathInstance& inst) { queue_.push_back(inst); }

 private:
  std::deque<PathInstance> queue_;
};

/// Per-path result breakdown of a shared scan.
struct SharedScanResult {
  QueryRunResult combined;                  // summed count, overall timing
  std::vector<std::uint64_t> path_counts;   // one entry per query path
};

/// Evaluates all paths of `query` in one sequential scan, from a cold
/// start (buffer, clock and metrics reset). Each lane's speculative
/// structure S is unbounded: fallback mode (Sec. 5.4.6) would make one
/// lane navigate across borders while the others still speculate against
/// the pinned cluster, so budgeted evaluation goes through ExecuteQuery.
Result<SharedScanResult> ExecuteQuerySharedScan(Database* db,
                                                const ImportedDocument& doc,
                                                const PathQuery& query);

}  // namespace navpath

#endif  // NAVPATH_COMPILER_SHARED_SCAN_H_
