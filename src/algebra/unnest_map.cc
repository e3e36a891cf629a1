#include "algebra/unnest_map.h"

namespace navpath {

Result<bool> NextUnnestedInstance(Database* db,
                                  [[maybe_unused]] PlanSharedState* shared,
                                  CrossClusterCursor* cursor,
                                  const LocationStep& step, int step_number,
                                  const PathInstance& current,
                                  PathInstance* out) {
  LogicalNode node;
  for (;;) {
    NAVPATH_ASSIGN_OR_RETURN(const bool found, cursor->Next(&node));
    if (!found) return false;
    db->clock()->ChargeCpu(db->costs().node_test);
    ++db->metrics()->node_tests;
    if (!step.test.Matches(node.tag)) continue;
    db->clock()->ChargeCpu(db->costs().instance_op);
    ++db->metrics()->instances_created;
    *out = current;
    out->right = PathEnd{step_number, node.id, node.order, false};
    NAVPATH_PROFILE_STEP_ROW(shared, step_number, *out);
    return true;
  }
}

Status UnnestMap::Open() {
  active_ = false;
  // Navigate the plan's snapshot, not the latest pages.
  cursor_ = CrossClusterCursor(db_, shared_->cluster.translator());
  return producer_->Open();
}

Status UnnestMap::Close() { return producer_->Close(); }

Result<bool> UnnestMap::Next(PathInstance* out) {
  for (;;) {
    if (active_) {
      NAVPATH_ASSIGN_OR_RETURN(
          const bool produced,
          NextUnnestedInstance(db_, shared_, &cursor_, step_, step_number_,
                               current_, out));
      if (produced) return true;
      active_ = false;
    }
    NAVPATH_ASSIGN_OR_RETURN(const bool have, producer_->Pull(&current_));
    if (!have) return false;
    if (current_.right.step != step_number_ - 1) {
      *out = current_;  // not applicable: forward
      return true;
    }
    NAVPATH_DCHECK(current_.right_complete());
    NAVPATH_RETURN_NOT_OK(cursor_.Start(step_.axis, current_.right.node));
    active_ = true;
  }
}

}  // namespace navpath
