#include "compiler/plan.h"

#include <string>
#include <utility>

#include "algebra/context_scan.h"
#include "algebra/unnest_map.h"
#include "algebra/xstep.h"

namespace navpath {

const PathSummary* PlanSummary(const Database* db,
                               const PlanOptions& options) {
  if (!options.use_summary) return nullptr;
  return options.translator != nullptr ? options.snapshot_summary
                                       : db->summary();
}

Result<PathPlan> BuildPlan(Database* db, const ImportedDocument& doc,
                           const LocationPath& path,
                           std::vector<LogicalNode> contexts,
                           const PlanOptions& options) {
  PathPlan plan;
  plan.shared_ = std::make_unique<PlanSharedState>(db);
  plan.shared_->cluster.SetTranslator(options.translator);

  if (path.absolute) {
    contexts.clear();
    contexts.push_back(LogicalNode{doc.root, 0, doc.root_order});
  } else if (contexts.empty()) {
    return Status::InvalidArgument("relative path without context nodes");
  }

  // Operator display names and path-step numbers, parallel to
  // plan.operators_ (consumed by the profiler wiring below).
  std::vector<std::pair<std::string, int>> labels;
  auto add = [&plan, &labels](std::unique_ptr<PathOperator> op,
                              std::string name, int step = -1) {
    plan.operators_.push_back(std::move(op));
    labels.emplace_back(std::move(name), step);
    return plan.operators_.back().get();
  };
  auto step_name = [&path](const char* op, int i) {
    return std::string(op) + "_" + std::to_string(i + 1) + "(" +
           path.steps[static_cast<std::size_t>(i)].ToString() + ")";
  };

  // Path-summary consultation: a provably empty path needs no operators
  // beyond an empty ContextScan (zero cluster accesses); a supported
  // XScan path confines the sweep to the touched-extent union.
  const PathSummary* summary = PlanSummary(db, options);
  std::vector<SummaryExtent> scan_extents;
  if (summary != nullptr && PathSummary::Supports(path)) {
    const SummaryMatch match = summary->Match(path);
    if (match.empty) {
      plan.summary_pruned_ = true;
      contexts.clear();
    } else if (options.kind == PlanKind::kXScan) {
      scan_extents = summary->ExtentUnion(match.touched);
    }
  }

  PathOperator* tip = add(std::make_unique<ContextScan>(std::move(contexts)),
                          "ContextScan", 0);
  const int length = static_cast<int>(path.length());

  if (plan.summary_pruned_) {
    // The summary proved the path empty: the context-less scan is the
    // whole plan, no step ever runs, no cluster is touched.
    plan.root_ = tip;
  } else switch (options.kind) {
    case PlanKind::kSimple: {
      for (int i = 0; i < length; ++i) {
        tip = add(std::make_unique<UnnestMap>(db, plan.shared_.get(), tip,
                                              i + 1, path.steps[i]),
                  step_name("UnnestMap", i), i + 1);
      }
      plan.root_ = tip;
      break;
    }
    case PlanKind::kXSchedule: {
      XScheduleOptions sched_options;
      sched_options.k = options.queue_k;
      sched_options.speculative = options.speculative;
      sched_options.path_length = length;
      auto* schedule = static_cast<XSchedule*>(add(
          std::make_unique<XSchedule>(db, plan.shared_.get(), tip,
                                      sched_options),
          "XSchedule"));
      tip = schedule;
      for (int i = 0; i < length; ++i) {
        tip = add(std::make_unique<XStep>(db, plan.shared_.get(), tip, i + 1,
                                          path.steps[i]),
                  step_name("XStep", i), i + 1);
      }
      XAssemblyOptions asm_options;
      asm_options.path_length = length;
      asm_options.s_budget = options.s_budget;
      asm_options.speculative = options.speculative;
      asm_options.first_step_reaches_all = false;  // no full-visit guarantee
      auto* assembly = static_cast<XAssembly*>(
          add(std::make_unique<XAssembly>(db, plan.shared_.get(), tip,
                                          schedule, asm_options),
              "XAssembly"));
      plan.root_ = assembly;
      plan.assembly_ = assembly;
      break;
    }
    case PlanKind::kXScan: {
      XScanOptions scan_options;
      scan_options.first_page = doc.first_page;
      scan_options.last_page = doc.last_page;
      scan_options.path_length = length;
      scan_options.restrict_to = std::move(scan_extents);
      tip = add(std::make_unique<XScan>(db, plan.shared_.get(), tip,
                                        scan_options),
                "XScan");
      for (int i = 0; i < length; ++i) {
        tip = add(std::make_unique<XStep>(db, plan.shared_.get(), tip, i + 1,
                                          path.steps[i]),
                  step_name("XStep", i), i + 1);
      }
      XAssemblyOptions asm_options;
      asm_options.path_length = length;
      asm_options.s_budget = options.s_budget;
      asm_options.speculative = true;
      // Sec. 5.4.5.4: with a guaranteed full scan and a first step that
      // reaches every node from the root, step-0 right ends are implicit.
      asm_options.first_step_reaches_all =
          path.absolute && length > 0 &&
          (path.steps[0].axis == Axis::kDescendant ||
           path.steps[0].axis == Axis::kDescendantOrSelf);
      auto* assembly = static_cast<XAssembly*>(
          add(std::make_unique<XAssembly>(db, plan.shared_.get(), tip,
                                          /*schedule=*/nullptr,
                                          asm_options),
              "XAssembly"));
      plan.root_ = assembly;
      plan.assembly_ = assembly;
      break;
    }
  }
  if (plan.root_ == nullptr) {
    return Status::InvalidArgument("unknown plan kind");
  }

#if NAVPATH_OBSERVE_ENABLED
  if (options.profile) {
    plan.profiler_ = std::make_unique<PlanProfiler>();
    plan.profiler_->step_rows.resize(static_cast<std::size_t>(length) + 1, 0);
    plan.shared_->profiler = plan.profiler_.get();
    plan.shared_->cluster.set_visit_counter(&plan.profiler_->clusters_entered);
    for (std::size_t i = 0; i < plan.operators_.size(); ++i) {
      const std::size_t slot =
          plan.profiler_->Register(labels[i].first, labels[i].second);
      plan.operators_[i]->EnableProfiling(plan.profiler_.get(), db,
                                          &plan.shared_->owner_id, slot);
    }
  }
#endif
  return plan;
}

}  // namespace navpath
