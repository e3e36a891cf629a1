// Physical plan construction for location paths.
//
// Three plan shapes, mirroring the paper's evaluation (Sec. 6.2):
//   kSimple    — ContextScan -> UnnestMap chain            (Sec. 5.1)
//   kXSchedule — ContextScan -> XSchedule -> XStep* -> XAssembly
//   kXScan     — ContextScan -> XScan     -> XStep* -> XAssembly
#ifndef NAVPATH_COMPILER_PLAN_H_
#define NAVPATH_COMPILER_PLAN_H_

#include <memory>
#include <vector>

#include "algebra/operator.h"
#include "algebra/xassembly.h"
#include "algebra/xschedule.h"
#include "algebra/xscan.h"
#include "store/cross_cursor.h"
#include "store/import.h"
#include "xpath/location_path.h"

namespace navpath {

enum class PlanKind { kSimple, kXSchedule, kXScan };

inline const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSimple:
      return "Simple";
    case PlanKind::kXSchedule:
      return "XSchedule";
    case PlanKind::kXScan:
      return "XScan";
  }
  return "?";
}

struct PlanOptions {
  PlanKind kind = PlanKind::kXSchedule;
  /// XSchedule only: generate speculative seeds per visited cluster
  /// (Sec. 5.4.4). The paper's experiments run XSchedule with
  /// speculative = false (Sec. 6.2); XScan always speculates.
  bool speculative = false;
  /// XSchedule's desired minimum queue size (paper default: 100).
  std::size_t queue_k = 100;
  /// Memory budget for XAssembly's S (instances; 0 = unlimited). Exceeding
  /// it reverts the plan to fallback mode (Sec. 5.4.6).
  std::size_t s_budget = 0;
  /// Attach a PlanProfiler: every pull is bracketed with simulated-clock
  /// readings (per-operator self/total time, actual per-step cardinalities)
  /// for EXPLAIN ANALYZE. Profiling reads the clock and never charges it,
  /// so simulated costs are unchanged. Ignored (and free) on builds
  /// configured with -DNAVPATH_OBSERVE=OFF.
  bool profile = false;
  /// Consult the document's path-summary synopsis (when the database has
  /// one): a path the summary proves empty collapses to an empty plan
  /// with zero cluster accesses, and an XScan sweep is restricted to the
  /// touched-extent union. Off reproduces pre-summary plans exactly.
  bool use_summary = true;
  /// MVCC page translation for every buffer access the plan makes
  /// (typically a Snapshot or WriterTxn). nullptr — the default — runs
  /// against the current page images with identity translation,
  /// byte-identical to pre-MVCC execution. The translator must outlive
  /// the plan.
  const PageTranslator* translator = nullptr;
  /// Summary to consult instead of the database's when `translator` is
  /// set: a snapshot must plan against its own version's synopsis, not
  /// the latest commit's. Ignored without a translator.
  const PathSummary* snapshot_summary = nullptr;
};

/// An executable operator tree. Movable; owns all operators and the shared
/// plan state.
class PathPlan {
 public:
  PathOperator* root() const { return root_; }
  PlanSharedState* shared() const { return shared_.get(); }
  const XAssembly* assembly() const { return assembly_; }
  /// Non-null iff built with PlanOptions.profile on an observe-enabled
  /// build; holds the per-operator measurements after execution.
  PlanProfiler* profiler() const { return profiler_.get(); }
  /// True when the path summary proved the path empty and BuildPlan
  /// collapsed it to an empty ContextScan (no cluster is ever touched).
  bool summary_pruned() const { return summary_pruned_; }

 private:
  friend Result<PathPlan> BuildPlan(Database*, const ImportedDocument&,
                                    const LocationPath&,
                                    std::vector<LogicalNode>,
                                    const PlanOptions&);

  std::unique_ptr<PlanSharedState> shared_;
  std::vector<std::unique_ptr<PathOperator>> operators_;
  std::unique_ptr<PlanProfiler> profiler_;
  PathOperator* root_ = nullptr;
  XAssembly* assembly_ = nullptr;
  bool summary_pruned_ = false;
};

/// The path summary a plan built with `options` consults: none without
/// use_summary, the snapshot's own under a translator, else the
/// database's (null when it has none).
const PathSummary* PlanSummary(const Database* db, const PlanOptions& options);

/// Builds a plan for `path` over `doc`. `contexts` seeds relative paths;
/// absolute paths use the document root (contexts may then be empty).
Result<PathPlan> BuildPlan(Database* db, const ImportedDocument& doc,
                           const LocationPath& path,
                           std::vector<LogicalNode> contexts,
                           const PlanOptions& options);

}  // namespace navpath

#endif  // NAVPATH_COMPILER_PLAN_H_
