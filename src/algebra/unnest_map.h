// Unnest-Map: the Simple method's step operator (Sec. 5.1).
//
// For every input instance with S_R == i-1 it enumerates all nodes
// reachable via step i over the *logical* tree, traversing inter-cluster
// edges immediately (synchronous random I/O on buffer misses). Instances
// it is not applicable to are forwarded unchanged.
#ifndef NAVPATH_ALGEBRA_UNNEST_MAP_H_
#define NAVPATH_ALGEBRA_UNNEST_MAP_H_

#include <memory>

#include "algebra/operator.h"
#include "store/cross_cursor.h"
#include "xpath/location_path.h"

namespace navpath {

/// The per-node body of Unnest-Map, shared with XStep's fallback mode:
/// runs `cursor` on to the next node that passes `step`'s node test and
/// writes `current` extended by that node (S_R := step_number) to `out`.
/// Charges a node test per node the cursor yields and an instance op per
/// match. Returns false once the cursor is exhausted.
Result<bool> NextUnnestedInstance(Database* db, PlanSharedState* shared,
                                  CrossClusterCursor* cursor,
                                  const LocationStep& step, int step_number,
                                  const PathInstance& current,
                                  PathInstance* out);

class UnnestMap : public PathOperator {
 public:
  /// `step_number` is i (1-based); consumes instances with S_R == i-1.
  UnnestMap(Database* db, PlanSharedState* shared, PathOperator* producer,
            int step_number, LocationStep step)
      : db_(db),
        shared_(shared),
        producer_(producer),
        step_number_(step_number),
        step_(std::move(step)),
        cursor_(db) {}

  Status Open() override;
  Result<bool> Next(PathInstance* out) override;
  Status Close() override;

 private:
  Database* db_;
  PlanSharedState* shared_;
  PathOperator* producer_;
  int step_number_;
  LocationStep step_;

  bool active_ = false;       // cursor_ is enumerating current_
  PathInstance current_;
  CrossClusterCursor cursor_;
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_UNNEST_MAP_H_
