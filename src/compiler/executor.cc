#include "compiler/executor.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace navpath {
namespace {

/// String value of a node (element text or attribute value). `id` is
/// logical; `translator` (nullable) supplies the MVCC page mapping.
Result<std::string> NodeStringValue(Database* db, NodeID id,
                                    const PageTranslator* translator) {
  NAVPATH_ASSIGN_OR_RETURN(
      PageGuard guard,
      db->buffer()->Fix(TranslateToPhysical(translator, id.page)));
  const ClusterView view = db->MakeView(guard, id.page);
  return std::string(view.TextOf(id.slot));
}

/// Existence (or string-equality) check of a relative path from `context`,
/// navigating the paged store directly. Nested predicates recurse.
Result<bool> StorePredicateHolds(Database* db, NodeID context,
                                 const Predicate& pred,
                                 const PageTranslator* translator);

Result<bool> StepSatisfiesPredicates(Database* db, const LogicalNode& node,
                                     const LocationStep& step,
                                     const PageTranslator* translator) {
  for (const Predicate& pred : step.predicates) {
    NAVPATH_ASSIGN_OR_RETURN(
        const bool holds,
        StorePredicateHolds(db, node.id, pred, translator));
    if (!holds) return false;
  }
  return true;
}

Result<bool> StorePredicateHolds(Database* db, NodeID context,
                                 const Predicate& pred,
                                 const PageTranslator* translator) {
  std::vector<NodeID> frontier{context};
  const LocationPath& path = *pred.path;
  for (std::size_t i = 0; i < path.steps.size(); ++i) {
    const LocationStep& step = path.steps[i];
    const bool last = i + 1 == path.steps.size();
    std::vector<NodeID> next;
    // One origin's axis enumeration never repeats a node, so only a
    // frontier of two or more nodes can reach a node twice. A lone origin
    // skips the set, which then never allocates.
    const bool dedup = frontier.size() > 1;
    FlatSet<std::uint64_t> seen;
    CrossClusterCursor cursor(db, translator);
    for (const NodeID ctx : frontier) {
      NAVPATH_RETURN_NOT_OK(cursor.Start(step.axis, ctx));
      LogicalNode node;
      for (;;) {
        NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&node));
        if (!more) break;
        db->clock()->ChargeCpu(db->costs().node_test);
        if (!step.test.Matches(node.tag)) continue;
        if (dedup && !seen.insert(node.id.Pack())) continue;
        NAVPATH_ASSIGN_OR_RETURN(
            const bool keep,
            StepSatisfiesPredicates(db, node, step, translator));
        if (!keep) continue;
        if (last && !pred.has_value) return true;  // existence: early out
        if (last && pred.has_value) {
          NAVPATH_ASSIGN_OR_RETURN(
              const std::string value,
              NodeStringValue(db, node.id, translator));
          if (value == pred.value) return true;
          continue;
        }
        next.push_back(node.id);
      }
    }
    if (last) return false;
    if (next.empty()) return false;
    frontier = std::move(next);
  }
  // Zero-step relative path: the context itself exists.
  return !pred.has_value;
}

/// Assembles the estimated-vs-actual report for one executed plan. The
/// actual side reads the plan's profiler (null-safe: without profiling
/// only the aggregate fields are filled); `window` carries the metrics
/// delta of the run.
PathExplain BuildPathExplain(Database* db, const LocationPath& path,
                             const PathPlan& plan,
                             const PlanOptions& plan_options,
                             const DocumentStats* stats,
                             std::uint64_t result_count, SimTime total_time,
                             SimTime io_wait_time, const Metrics& window,
                             const PathSummary* summary) {
  PathExplain explain;
  explain.query = path.ToString();
  explain.plan_kind = PlanKindName(plan_options.kind);
  explain.result_count = result_count;
  explain.total_time = total_time;
  explain.io_wait_time = io_wait_time;
  explain.disk_reads = window.disk_reads;
  explain.buffer_hits = window.buffer_hits;
  explain.buffer_misses = window.buffer_misses;
  explain.fallback_activated = window.fallback_activations > 0;
  explain.summary_pruned = plan.summary_pruned();

  std::vector<double> est_steps;
  bool est_exact = false;
  if (stats != nullptr) {
    const PathEstimate estimate =
        EstimatePathDetailed(*stats, path, &est_steps, summary);
    est_exact = estimate.summary_exact;
    explain.estimated_clusters_touched = estimate.clusters_touched;
    const PlanCosts costs =
        EstimatePlanCosts(*stats, estimate, path.length(),
                          db->options().disk_model, db->options().cpu_costs);
    switch (plan_options.kind) {
      case PlanKind::kSimple:
        explain.estimated_cost = costs.simple;
        break;
      case PlanKind::kXSchedule:
        explain.estimated_cost = costs.xschedule;
        break;
      case PlanKind::kXScan:
        explain.estimated_cost = costs.xscan;
        break;
    }
  }

  const PlanProfiler* profiler = plan.profiler();
  for (std::size_t i = 0; i < path.steps.size(); ++i) {
    ExplainStep step;
    step.description = path.steps[i].ToString();
    if (i < est_steps.size()) step.estimated_rows = est_steps[i];
    if (stats != nullptr) {
      step.estimate_source = est_exact ? "summary-exact" : "stats-estimate";
    }
    if (profiler != nullptr && i + 1 < profiler->step_rows.size()) {
      step.actual_rows = profiler->step_rows[i + 1];
    }
    explain.steps.push_back(std::move(step));
  }
  if (profiler != nullptr) {
    explain.actual_clusters_entered = profiler->clusters_entered;
    for (const OperatorProfile& op : profiler->operators()) {
      ExplainOperator out;
      out.name = op.name;
      out.step = op.step;
      out.pulls = op.pulls;
      out.rows = op.rows;
      out.total_time = op.total_time;
      out.self_time = op.self_time;
      out.total_io_wait = op.total_io_wait;
      out.self_io_wait = op.self_io_wait;
      explain.operators.push_back(std::move(out));
    }
  }
  return explain;
}

/// What an operand of `n` distinct nodes adds to the query's count: n, or
/// 0/1 for exists(), whose operands all start at count 0 (a hit before
/// one settles the query).
std::uint64_t OperandCount(const PathQuery& query, std::uint64_t n) {
  if (query.mode != PathQuery::Mode::kExists) return n;
  return n > 0 ? 1 : 0;
}

/// Steps one non-cooperative lifecycle through `query` after a cold
/// start.
Result<QueryRunResult> RunToCompletion(Database* db,
                                       const ImportedDocument& doc,
                                       PathQuery query,
                                       const ExecuteOptions& options,
                                       bool summary_answer) {
  if (query.paths.empty()) {
    return Status::InvalidArgument("query without paths");
  }
  NAVPATH_RETURN_NOT_OK(db->ResetMeasurement());
  QueryLifecycle lifecycle(db, doc, std::move(query), options,
                           /*owner_id=*/0, /*cooperative=*/false,
                           summary_answer);
  NAVPATH_RETURN_NOT_OK(lifecycle.Start());
  QueryLifecycle::Step step = QueryLifecycle::Step::kResult;
  do {
    NAVPATH_ASSIGN_OR_RETURN(step, lifecycle.Advance());
  } while (step != QueryLifecycle::Step::kQueryDone);
  QueryRunResult result;
  result.count = lifecycle.count();
  result.nodes = std::move(*lifecycle.mutable_nodes());
  result.explain = lifecycle.explain();
  result.total_time = db->clock()->now();
  result.cpu_time = db->clock()->cpu_time();
  result.metrics = *db->metrics();
  return result;
}

/// Document-order sort (Sec. 5.5) of collected result nodes: charges
/// n·max(1, log2 n)·sort_op, then sorts by order key. Order keys travel
/// with instances, so no I/O is needed. Fewer than two nodes cost nothing.
void SortDocumentOrder(Database* db, std::vector<LogicalNode>* nodes) {
  if (nodes->size() < 2) return;
  const double n = static_cast<double>(nodes->size());
  db->clock()->ChargeCpu(static_cast<SimTime>(
      n * std::max(1.0, std::log2(n)) *
      static_cast<double>(db->costs().sort_op)));
  std::sort(nodes->begin(), nodes->end(),
            [](const LogicalNode& a, const LogicalNode& b) {
              return a.order < b.order;
            });
}

}  // namespace

QueryLifecycle::QueryLifecycle(Database* db, const ImportedDocument& doc,
                               PathQuery query, ExecuteOptions options,
                               std::uint32_t owner_id, bool cooperative,
                               bool summary_answer)
    : db_(db),
      query_(std::move(query)),
      collect_(options.collect_nodes &&
               query_.mode == PathQuery::Mode::kNodes),
      doc_(&doc),
      options_(std::move(options)),
      owner_id_(owner_id),
      cooperative_(cooperative),
      summary_answer_(summary_answer),
      summary_(PlanSummary(db, options_.plan)) {
  if (options_.explain) {
    options_.plan.profile = true;
    explain_ = std::make_shared<QueryExplain>();
  }
}

QueryLifecycle::~QueryLifecycle() {
  // A plan an error left open gives back its pins and tables.
  if (plan_.root() != nullptr) {
    db_->table_pool()->GiveBack(std::move(seen_));
    (void)plan_.root()->Close();
  }
}

Status QueryLifecycle::BeginOperand() {
  const LocationPath& path = query_.paths[operand_];
  operand_results_ = 0;
  segmented_ = path.HasPredicates();
  if (segmented_) {
    segment_begin_ = 0;
    return OpenSegment(options_.contexts);
  }
  // Navigation-free answer: a predicate-free count()/exists() operand is
  // answered from the path summary alone — exact, zero cluster accesses.
  if (summary_answer_ && summary_ != nullptr &&
      query_.mode != PathQuery::Mode::kNodes &&
      PathSummary::Supports(path)) {
    phase_ = Phase::kAnswer;
    return Status::OK();
  }
  if (explain_ != nullptr) {
    explain_start_ = db_->metrics()->Snapshot();
    explain_t0_ = db_->clock()->now();
    explain_io0_ = db_->clock()->io_wait_time();
    explain_count0_ = count_;
  }
  return OpenPlan(path, options_.contexts);
}

Status QueryLifecycle::OpenPlan(const LocationPath& path,
                                std::vector<LogicalNode> contexts) {
  NAVPATH_ASSIGN_OR_RETURN(
      PathPlan plan,
      BuildPlan(db_, *doc_, path, std::move(contexts), options_.plan));
  plan.shared()->owner_id = owner_id_;
  plan.shared()->cooperative = cooperative_;
  NAVPATH_RETURN_NOT_OK(plan.root()->Open());
  plan_ = std::move(plan);
  // Each plan takes its dedup table (empty) and gives it back when it
  // closes; a summary-answered query takes none.
  seen_ = db_->table_pool()->Take();
  phase_ = Phase::kPull;
  return Status::OK();
}

Status QueryLifecycle::OpenSegment(std::vector<LogicalNode> contexts) {
  // A segment is the maximal run of steps ending at a predicated step (or
  // at the path's end), run with its predicates stripped; the filter
  // applies them to the nodes it produces.
  const LocationPath& path = query_.paths[operand_];
  std::size_t end = segment_begin_;
  while (end < path.steps.size() && path.steps[end].predicates.empty()) {
    ++end;
  }
  if (end < path.steps.size()) ++end;
  segment_end_ = end;
  LocationPath segment;
  segment.absolute = segment_begin_ == 0 && path.absolute;
  for (std::size_t i = segment_begin_; i < end; ++i) {
    LocationStep step = path.steps[i];
    step.predicates.clear();
    segment.steps.push_back(std::move(step));
  }
  segment_nodes_.clear();
  return OpenPlan(segment, std::move(contexts));
}

Result<QueryLifecycle::Step> QueryLifecycle::Pull() {
  NAVPATH_ASSIGN_OR_RETURN(const bool have, plan_.root()->Pull(&inst_));
  if (!have) {
    if (plan_.shared()->yielded) {
      plan_.shared()->yielded = false;
      return Step::kYield;
    }
    return EndPlan(/*stopped_early=*/false);
  }
  // Final duplicate elimination (required for the Simple method; a cheap
  // re-check for XAssembly plans, whose R already deduplicates).
  db_->clock()->ChargeCpu(db_->costs().set_op);
  if (!seen_.insert(inst_.right.node.Pack())) return Step::kResult;
  ++operand_results_;
  const LogicalNode node{inst_.right.node, 0, inst_.right.order};
  if (segmented_) {
    segment_nodes_.push_back(node);
    return Step::kResult;
  }
  ++count_;
  if (collect_) nodes_.push_back(node);
  // exists(a)+exists(b) is the logical OR: one hit settles the query.
  if (query_.mode == PathQuery::Mode::kExists) {
    return EndPlan(/*stopped_early=*/true);
  }
  return Step::kResult;
}

Result<QueryLifecycle::Step> QueryLifecycle::EndPlan(bool stopped_early) {
  db_->table_pool()->GiveBack(std::move(seen_));
  NAVPATH_RETURN_NOT_OK(plan_.root()->Close());
  // An early stop abandons the plan's speculative prefetches mid-flight.
  // Alone on the database, drain them so it stays reusable and the
  // device-busy tail is accounted for; in a workload they are the
  // drive's to finish, and EndStepping drains whatever is left.
  if (stopped_early && !cooperative_) {
    while (db_->buffer()->HasPrefetchInFlight()) {
      (void)db_->buffer()->WaitAnyPrefetch();
    }
  }
  const LocationPath& path = query_.paths[operand_];
  if (!segmented_ && explain_ != nullptr) {
    explain_->paths.push_back(BuildPathExplain(
        db_, path, plan_, options_.plan, options_.stats,
        count_ - explain_count0_, db_->clock()->now() - explain_t0_,
        db_->clock()->io_wait_time() - explain_io0_,
        db_->metrics()->Delta(explain_start_), summary_));
  }
  plan_ = PathPlan();
  if (!segmented_) return FinishOperand();
  if (!path.steps[segment_end_ - 1].predicates.empty() &&
      !segment_nodes_.empty()) {
    phase_ = Phase::kFilter;
    filter_pos_ = 0;
    kept_ = 0;
    return Step::kOperandDone;
  }
  return EndSegment();
}

Result<QueryLifecycle::Step> QueryLifecycle::AnswerOrFilter() {
  const LocationPath& path = query_.paths[operand_];
  if (phase_ == Phase::kFilter) {
    const LogicalNode node = segment_nodes_[filter_pos_++];
    NAVPATH_ASSIGN_OR_RETURN(
        const bool keep,
        StepSatisfiesPredicates(db_, node, path.steps[segment_end_ - 1],
                                options_.plan.translator));
    if (keep) segment_nodes_[kept_++] = node;
    if (filter_pos_ < segment_nodes_.size()) return Step::kResult;
    segment_nodes_.resize(kept_);
    return EndSegment();
  }
  const SummaryMatch match = summary_->Match(path);
  const SimTime t0 = db_->clock()->now();
  db_->clock()->ChargeCpu(static_cast<SimTime>(match.nodes_examined) *
                          db_->costs().node_test);
  const std::uint64_t answer = OperandCount(query_, match.result_count);
  count_ += answer;
  if (explain_ != nullptr) {
    PathExplain explain;
    explain.query = path.ToString();
    explain.plan_kind = "SummaryIndex";
    explain.result_count = answer;
    explain.total_time = db_->clock()->now() - t0;
    for (std::size_t i = 0; i < path.steps.size(); ++i) {
      ExplainStep step;
      step.description = path.steps[i].ToString();
      const std::uint64_t selected =
          i < match.steps.size() ? match.steps[i].selected : 0;
      step.estimated_rows = static_cast<double>(selected);
      step.actual_rows = selected;
      step.estimate_source = "summary-exact";
      explain.steps.push_back(std::move(step));
    }
    explain_->paths.push_back(std::move(explain));
  }
  return FinishOperand();
}

Result<QueryLifecycle::Step> QueryLifecycle::EndSegment() {
  if (segment_end_ < query_.paths[operand_].steps.size() &&
      !segment_nodes_.empty()) {
    segment_begin_ = segment_end_;
    NAVPATH_RETURN_NOT_OK(OpenSegment(std::move(segment_nodes_)));
    return Step::kOperandDone;
  }
  // The last segment's nodes (none after an empty one) are the operand's
  // result.
  count_ += OperandCount(query_, segment_nodes_.size());
  if (collect_) {
    nodes_.insert(nodes_.end(), segment_nodes_.begin(), segment_nodes_.end());
  }
  return FinishOperand();
}

Result<QueryLifecycle::Step> QueryLifecycle::FinishOperand() {
  ++operand_;
  const bool settled =
      query_.mode == PathQuery::Mode::kExists && count_ > 0;
  if (operand_ < query_.paths.size() && !settled) {
    NAVPATH_RETURN_NOT_OK(BeginOperand());
    return Step::kOperandDone;
  }
  SortDocumentOrder(db_, &nodes_);
  return Step::kQueryDone;
}

Result<QueryRunResult> ExecutePath(Database* db, const ImportedDocument& doc,
                                   const LocationPath& path,
                                   const ExecuteOptions& options) {
  PathQuery query;
  query.mode = options.collect_nodes ? PathQuery::Mode::kNodes
                                     : PathQuery::Mode::kCount;
  query.paths.push_back(path);
  // ExecutePath drives the caller's chosen physical plan even for counts:
  // its contract is "run this path", so the navigation-free summary answer
  // would bypass exactly what plan-level callers measure. Full queries go
  // through ExecuteQuery, where count()/exists() may skip navigation.
  return RunToCompletion(db, doc, std::move(query), options,
                         /*summary_answer=*/false);
}

Result<QueryRunResult> ExecuteQuery(Database* db, const ImportedDocument& doc,
                                    const PathQuery& query,
                                    const ExecuteOptions& options) {
  return RunToCompletion(db, doc, query, options, /*summary_answer=*/true);
}

}  // namespace navpath
