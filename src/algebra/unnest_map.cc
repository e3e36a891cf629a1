#include "algebra/unnest_map.h"

namespace navpath {

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
      LogicalNode node;
      NAVPATH_ASSIGN_OR_RETURN(const bool found, cursor_.Next(&node));
      if (found) {
        db_->clock()->ChargeCpu(db_->costs().node_test);
        ++db_->metrics()->node_tests;
        if (!step_.test.Matches(node.tag)) continue;
        db_->clock()->ChargeCpu(db_->costs().instance_op);
        ++db_->metrics()->instances_created;
        *out = current_;
        out->right = PathEnd{step_number_, node.id, node.order, false};
        NAVPATH_PROFILE_STEP_ROW(shared_, step_number_, *out);
        return true;
      }
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
