// Plan execution: drives plans to exhaustion and post-processes results
// (duplicate elimination, document-order sort, counting — Sec. 5.1, 5.5),
// in one query lifecycle that every driver shares.
#ifndef NAVPATH_COMPILER_EXECUTOR_H_
#define NAVPATH_COMPILER_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/flat_set.h"
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

/// Everything one query does between activation and completion, one
/// step at a time; ExecuteQuery and the WorkloadExecutor both drive it
/// (DESIGN.md §7, "One query lifecycle"). A step is one pull of the
/// current plan, the summary answer of one count()/exists() operand, or
/// the predicate filter of one node a predicated segment produced. A
/// predicated operand runs as predicate-free segments, each ending at a
/// predicated step, whose filtered nodes seed the next. Operands run in
/// order, and the step that finishes one opens the next one's plan;
/// exists() ends at its first hit.
class QueryLifecycle {
 public:
  enum class Step {
    kResult,       // a pull produced an instance, or a node was filtered
    kYield,        // the plan refused to block on the drive
    kOperandDone,  // a plan closed or an operand was answered; the next
                   // plan, if one is due now, is open
    kQueryDone,    // count, nodes (document order) and EXPLAIN are final
  };

  /// Every plan the lifecycle builds carries `owner_id` and `cooperative`
  /// (ExecuteQuery: 0 and false). After an early stop a non-cooperative
  /// lifecycle drains the prefetches it abandoned; a workload leaves them
  /// to EndStepping. `summary_answer` lets a count()/exists() operand in
  /// the summary's domain be answered from the summary PlanSummary picks.
  QueryLifecycle(Database* db, const ImportedDocument& doc, PathQuery query,
                 ExecuteOptions options, std::uint32_t owner_id,
                 bool cooperative, bool summary_answer = true);
  ~QueryLifecycle();
  QueryLifecycle(const QueryLifecycle&) = delete;
  QueryLifecycle& operator=(const QueryLifecycle&) = delete;

  /// Opens the first operand's plan, unless the summary answers it.
  Status Start() { return BeginOperand(); }
  /// One step. After an error the lifecycle must not be stepped again;
  /// destroying it closes a plan that is still open.
  Result<Step> Advance() {
    return phase_ == Phase::kPull ? Pull() : AnswerOrFilter();
  }

  // Read by the workload scheduler: the operand being evaluated, the
  // distinct instances its plans produced so far, and the open plan's
  // shared state (null while a summary answer or a filter is next).
  std::size_t operand() const { return operand_; }
  std::uint64_t operand_results() const { return operand_results_; }
  PlanSharedState* shared() const { return plan_.shared(); }

  // The results, final once Advance() returned kQueryDone.
  std::uint64_t count() const { return count_; }
  std::vector<LogicalNode>* mutable_nodes() { return &nodes_; }
  const std::shared_ptr<QueryExplain>& explain() const { return explain_; }

 private:
  enum class Phase { kPull, kAnswer, kFilter };

  Status BeginOperand();
  Status OpenPlan(const LocationPath& path, std::vector<LogicalNode> contexts);
  Status OpenSegment(std::vector<LogicalNode> contexts);
  Result<Step> Pull();
  Result<Step> AnswerOrFilter();
  Result<Step> EndPlan(bool stopped_early);
  Result<Step> EndSegment();
  Result<Step> FinishOperand();

  // Touched on every pull, so kept together.
  Database* db_;
  PathQuery query_;
  Phase phase_ = Phase::kPull;
  bool segmented_ = false;  // the operand has predicates
  bool collect_;
  PathPlan plan_;
  FlatSet<std::uint64_t> seen_;  // dedup within the open plan
  std::uint64_t count_ = 0;
  std::uint64_t operand_results_ = 0;
  PathInstance inst_;
  std::vector<LogicalNode> nodes_;

  const ImportedDocument* doc_;
  ExecuteOptions options_;
  std::uint32_t owner_id_;
  bool cooperative_;
  bool summary_answer_;
  const PathSummary* summary_;
  std::size_t operand_ = 0;
  // A predicated operand's open segment [segment_begin_, segment_end_) of
  // its steps, the nodes the segment produced, and the filter's read and
  // write positions (kept nodes are compacted to the front).
  std::size_t segment_begin_ = 0;
  std::size_t segment_end_ = 0;
  std::vector<LogicalNode> segment_nodes_;
  std::size_t filter_pos_ = 0;
  std::size_t kept_ = 0;
  // EXPLAIN (ExecuteOptions.explain only) and the operand's window.
  std::shared_ptr<QueryExplain> explain_;
  Metrics explain_start_;
  SimTime explain_t0_ = 0;
  SimTime explain_io0_ = 0;
  std::uint64_t explain_count0_ = 0;
};

// Both entry points start cold: buffer, clock and metrics are reset first
// (the paper's measurement discipline, Sec. 6.1). Each then steps one
// QueryLifecycle to completion.

/// Runs one location path and returns its (distinct) result nodes/count,
/// always through the chosen plan, never the summary answer.
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
