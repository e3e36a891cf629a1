// XStep: cheap intra-cluster navigation (Sec. 5.3.2).
//
// XStep_i extends instances with S_R == i-1 by step i using intra-cluster
// navigation only. Core results extend the instance (S_R := i); border
// records encountered mid-enumeration are emitted as right-incomplete
// instances (S_R stays i-1) and the local enumeration continues behind
// them. Instances XStep_i is not applicable to pass through unchanged.
//
// The origin of an enumeration may itself be a border record: that is the
// resumption of a step whose evaluation crossed into the current cluster
// (delivered by XSchedule after I/O, or hypothesized by a speculative
// seed). AxisCursor encapsulates the per-axis resume semantics.
//
// In fallback mode (Sec. 5.4.6) XStep behaves as a plain Unnest-Map,
// navigating across cluster borders immediately.
#ifndef NAVPATH_ALGEBRA_XSTEP_H_
#define NAVPATH_ALGEBRA_XSTEP_H_

#include <optional>

#include "algebra/operator.h"
#include "store/cross_cursor.h"
#include "xpath/location_path.h"

namespace navpath {

class XStep : public PathOperator {
 public:
  XStep(Database* db, PlanSharedState* shared, PathOperator* producer,
        int step_number, LocationStep step)
      : db_(db),
        shared_(shared),
        producer_(producer),
        step_number_(step_number),
        step_(std::move(step)),
        scan_tag_(step_.test.kind == NodeTest::Kind::kName
                      ? std::optional<TagId>(step_.test.tag)
                      : std::nullopt),
        fallback_cursor_(db) {}

  Status Open() override;
  Result<bool> Next(PathInstance* out) override;
  Status Close() override;

 private:
  bool NextIntra(PathInstance* out);

  Database* db_;
  PlanSharedState* shared_;
  PathOperator* producer_;
  int step_number_;
  LocationStep step_;
  std::optional<TagId> scan_tag_;  // AxisCursor::Scan's test; empty: any

  bool active_ = false;
  PathInstance current_;
  AxisCursor cursor_;                  // intra-cluster enumeration
  CrossClusterCursor fallback_cursor_; // full navigation in fallback mode
  bool fallback_active_ = false;
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_XSTEP_H_
