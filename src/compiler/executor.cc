#include "compiler/executor.h"

#include <algorithm>
#include <cmath>

#include "common/flat_set.h"

namespace navpath {
namespace {

/// Runs one prepared plan to exhaustion, deduplicating result nodes.
/// `stop_after` > 0 stops pulling once that many distinct results exist
/// (existence queries need just one).
Status DrainPlan(Database* db, PathPlan* plan, bool collect_nodes,
                 std::uint64_t* count, std::vector<LogicalNode>* nodes,
                 std::uint64_t stop_after = 0) {
  NAVPATH_RETURN_NOT_OK(plan->root()->Open());
  FlatSet<std::uint64_t> seen = db->table_pool()->Take();
  std::uint64_t produced = 0;
  bool stopped_early = false;
  PathInstance inst;
  for (;;) {
    NAVPATH_ASSIGN_OR_RETURN(const bool have, plan->root()->Pull(&inst));
    if (!have) break;
    // Final duplicate elimination (required for the Simple method; a
    // cheap re-check for XAssembly plans, whose R already deduplicates).
    db->clock()->ChargeCpu(db->costs().set_op);
    if (!seen.insert(inst.right.node.Pack())) continue;
    ++*count;
    ++produced;
    if (collect_nodes) {
      nodes->push_back(LogicalNode{inst.right.node, 0, inst.right.order});
    }
    if (stop_after != 0 && produced >= stop_after) {
      stopped_early = true;
      break;
    }
  }
  db->table_pool()->GiveBack(std::move(seen));
  NAVPATH_RETURN_NOT_OK(plan->root()->Close());
  // An early stop (existence queries) abandons the plan's speculative
  // prefetches mid-flight; drain them so the database stays reusable and
  // the device-busy tail is accounted for (same contract as
  // WorkloadExecutor::EndStepping).
  if (stopped_early) {
    while (db->buffer()->HasPrefetchInFlight()) {
      (void)db->buffer()->WaitAnyPrefetch();
    }
  }
  return Status::OK();
}

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

/// Evaluates a predicated path by splitting it into predicate-free
/// segments, each run through the chosen physical plan, with predicate
/// filtering between segments (the "more expressive algebra" around the
/// paper's operators).
Result<std::vector<LogicalNode>> EvaluateWithPredicates(
    Database* db, const ImportedDocument& doc, const LocationPath& path,
    std::vector<LogicalNode> contexts, const PlanOptions& plan_options) {
  if (path.absolute) {
    contexts.assign(1, LogicalNode{doc.root, 0, doc.root_order});
  }
  std::size_t begin = 0;
  bool first_segment = true;
  while (begin < path.steps.size()) {
    // Segment = maximal run ending at a predicated step (or path end).
    std::size_t end = begin;
    while (end < path.steps.size() &&
           path.steps[end].predicates.empty()) {
      ++end;
    }
    const bool segment_has_predicates = end < path.steps.size();
    if (segment_has_predicates) ++end;  // include the predicated step

    LocationPath segment;
    segment.absolute = first_segment && path.absolute;
    for (std::size_t i = begin; i < end; ++i) {
      LocationStep step = path.steps[i];
      step.predicates.clear();
      segment.steps.push_back(std::move(step));
    }
    NAVPATH_ASSIGN_OR_RETURN(
        PathPlan plan,
        BuildPlan(db, doc, segment, contexts, plan_options));
    std::vector<LogicalNode> nodes;
    std::uint64_t count = 0;
    NAVPATH_RETURN_NOT_OK(DrainPlan(db, &plan, /*collect_nodes=*/true,
                                    &count, &nodes));

    if (segment_has_predicates) {
      const LocationStep& predicated = path.steps[end - 1];
      std::vector<LogicalNode> kept;
      for (const LogicalNode& node : nodes) {
        NAVPATH_ASSIGN_OR_RETURN(
            const bool keep,
            StepSatisfiesPredicates(db, node, predicated,
                                    plan_options.translator));
        if (keep) kept.push_back(node);
      }
      nodes = std::move(kept);
    }
    contexts = std::move(nodes);
    begin = end;
    first_segment = false;
    if (contexts.empty()) break;
  }
  return contexts;
}

}  // namespace

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

namespace {

Result<QueryRunResult> ExecuteQueryImpl(Database* db,
                                        const ImportedDocument& doc,
                                        const PathQuery& query,
                                        const ExecuteOptions& options,
                                        bool allow_summary_answer) {
  if (query.paths.empty()) {
    return Status::InvalidArgument("query without paths");
  }
  const bool collect =
      options.collect_nodes && query.mode == PathQuery::Mode::kNodes;
  NAVPATH_RETURN_NOT_OK(db->ResetMeasurement());

  PlanOptions plan_options = options.plan;
  if (options.explain) plan_options.profile = true;

  const PathSummary* summary = PlanSummary(db, plan_options);
  const bool exists_mode = query.mode == PathQuery::Mode::kExists;

  QueryRunResult result;
  if (options.explain) result.explain = std::make_shared<QueryExplain>();
  for (const LocationPath& path : query.paths) {
    // exists(a)+exists(b) is the logical OR: one hit settles the query.
    if (exists_mode && result.count > 0) break;
    if (path.HasPredicates()) {
      NAVPATH_ASSIGN_OR_RETURN(
          const std::vector<LogicalNode> nodes,
          EvaluateWithPredicates(db, doc, path, options.contexts,
                                 plan_options));
      if (exists_mode) {
        if (!nodes.empty()) result.count = 1;
      } else {
        result.count += nodes.size();
      }
      if (collect) {
        result.nodes.insert(result.nodes.end(), nodes.begin(), nodes.end());
      }
      continue;
    }
    // Navigation-free fast path: a predicate-free count()/exists() is
    // answered from the path summary alone — exact, zero cluster accesses.
    if (allow_summary_answer && summary != nullptr &&
        query.mode != PathQuery::Mode::kNodes &&
        PathSummary::Supports(path)) {
      const SummaryMatch match = summary->Match(path);
      if (match.applicable) {
        const SimTime fast_t0 = db->clock()->now();
        db->clock()->ChargeCpu(
            static_cast<SimTime>(match.nodes_examined) *
            db->costs().node_test);
        if (exists_mode) {
          if (match.result_count > 0) result.count = 1;
        } else {
          result.count += match.result_count;
        }
        if (result.explain != nullptr) {
          PathExplain explain;
          explain.query = path.ToString();
          explain.plan_kind = "SummaryIndex";
          explain.result_count = exists_mode
                                     ? (match.result_count > 0 ? 1 : 0)
                                     : match.result_count;
          explain.total_time = db->clock()->now() - fast_t0;
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
          result.explain->paths.push_back(std::move(explain));
        }
        continue;
      }
    }
    const Metrics path_start = db->metrics()->Snapshot();
    const SimTime path_t0 = db->clock()->now();
    const SimTime path_io0 = db->clock()->io_wait_time();
    const std::uint64_t count_before = result.count;
    NAVPATH_ASSIGN_OR_RETURN(
        PathPlan plan,
        BuildPlan(db, doc, path, options.contexts, plan_options));
    NAVPATH_RETURN_NOT_OK(
        DrainPlan(db, &plan, collect, &result.count, &result.nodes,
                  exists_mode ? 1 : 0));
    if (result.explain != nullptr) {
      result.explain->paths.push_back(BuildPathExplain(
          db, path, plan, plan_options, options.stats,
          result.count - count_before, db->clock()->now() - path_t0,
          db->clock()->io_wait_time() - path_io0,
          db->metrics()->Delta(path_start), summary));
    }
  }

  SortDocumentOrder(db, &result.nodes);

  result.total_time = db->clock()->now();
  result.cpu_time = db->clock()->cpu_time();
  result.metrics = *db->metrics();
  return result;
}

}  // namespace

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
  return ExecuteQueryImpl(db, doc, query, options,
                          /*allow_summary_answer=*/false);
}

Result<QueryRunResult> ExecuteQuery(Database* db, const ImportedDocument& doc,
                                    const PathQuery& query,
                                    const ExecuteOptions& options) {
  return ExecuteQueryImpl(db, doc, query, options,
                          /*allow_summary_answer=*/true);
}

}  // namespace navpath
