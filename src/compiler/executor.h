// Plan execution: drives a plan to exhaustion and post-processes results
// (duplicate elimination, document-order sort, counting — Sec. 5.1, 5.5).
#ifndef NAVPATH_COMPILER_EXECUTOR_H_
#define NAVPATH_COMPILER_EXECUTOR_H_

#include <memory>
#include <vector>

#include "compiler/cost_model.h"
#include "compiler/plan.h"
#include "observe/explain.h"
#include "xpath/location_path.h"

namespace navpath {

struct QueryRunResult {
  /// Number of distinct result nodes (summed over count() operands).
  std::uint64_t count = 0;
  /// Node mode only: distinct result nodes in document order.
  std::vector<LogicalNode> nodes;

  // Simulated timing and metrics of the run. Every run cold-starts, so
  // these are the clock's and the counters' readings at its end.
  SimTime total_time = 0;
  SimTime cpu_time = 0;
  Metrics metrics;

  /// EXPLAIN ANALYZE report; set when ExecuteOptions.explain is on (one
  /// PathExplain per predicate-free operand path).
  std::shared_ptr<QueryExplain> explain;

  double total_seconds() const { return SimClock::ToSeconds(total_time); }
  double cpu_seconds() const { return SimClock::ToSeconds(cpu_time); }
  double cpu_fraction() const {
    return total_time == 0
               ? 0.0
               : static_cast<double>(cpu_time) /
                     static_cast<double>(total_time);
  }
};

struct ExecuteOptions {
  PlanOptions plan;
  /// Context nodes for relative paths (ignored by absolute paths, which
  /// start at the document root).
  std::vector<LogicalNode> contexts;
  /// Collect result nodes (sorted, document order). count() queries skip
  /// the sort — the paper notes order is irrelevant under aggregation
  /// (Sec. 5.5).
  bool collect_nodes = false;
  /// Produce an EXPLAIN ANALYZE report (forces PlanOptions.profile). Paths
  /// with predicates are executed but not reported in detail.
  bool explain = false;
  /// Document statistics for the estimate side of the report (estimated
  /// per-step cardinalities, clusters, cost). Null leaves the estimate
  /// columns zero.
  const DocumentStats* stats = nullptr;
};

/// Assembles the estimated-vs-actual report for one executed plan. The
/// actual side reads the plan's profiler (null-safe: without profiling
/// only the aggregate fields are filled); `window` carries the metrics
/// delta of the run. Exposed for the WorkloadExecutor, which drives plans
/// itself.
PathExplain BuildPathExplain(Database* db, const LocationPath& path,
                             const PathPlan& plan,
                             const PlanOptions& plan_options,
                             const DocumentStats* stats,
                             std::uint64_t result_count, SimTime total_time,
                             SimTime io_wait_time, const Metrics& window,
                             const PathSummary* summary = nullptr);

/// Document-order sort (Sec. 5.5) of collected result nodes: charges
/// n·max(1, log2 n)·sort_op, then sorts by order key. Order keys travel
/// with instances, so no I/O is needed. Fewer than two nodes cost nothing.
void SortDocumentOrder(Database* db, std::vector<LogicalNode>* nodes);

// Both entry points start cold: buffer, clock and metrics are reset first
// (the paper's measurement discipline, Sec. 6.1).

/// Runs one location path and returns its (distinct) result nodes/count.
Result<QueryRunResult> ExecutePath(Database* db, const ImportedDocument& doc,
                                   const LocationPath& path,
                                   const ExecuteOptions& options);

/// Runs a PathQuery: a single node-mode path or a sum of counts evaluated
/// sequentially (accumulating simulated time across the operand paths).
Result<QueryRunResult> ExecuteQuery(Database* db, const ImportedDocument& doc,
                                    const PathQuery& query,
                                    const ExecuteOptions& options);

}  // namespace navpath

#endif  // NAVPATH_COMPILER_EXECUTOR_H_
