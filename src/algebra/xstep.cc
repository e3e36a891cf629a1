#include "algebra/xstep.h"

#include "algebra/unnest_map.h"

namespace navpath {

Status XStep::Open() {
  active_ = false;
  fallback_active_ = false;
  fallback_cursor_ = CrossClusterCursor(db_, shared_->cluster.translator());
  return producer_->Open();
}

Status XStep::Close() { return producer_->Close(); }

Result<bool> XStep::Next(PathInstance* out) {
  for (;;) {
    if (active_) {
      if (NextIntra(out)) return true;
      active_ = false;
    }
    if (fallback_active_) {
      NAVPATH_ASSIGN_OR_RETURN(
          const bool produced,
          NextUnnestedInstance(db_, shared_, &fallback_cursor_, step_,
                               step_number_, current_, out));
      if (produced) return true;
      fallback_active_ = false;
    }
    NAVPATH_ASSIGN_OR_RETURN(const bool have, producer_->Pull(&current_));
    if (!have) return false;
    if (current_.right.step != step_number_ - 1) {
      *out = current_;  // not applicable: forward unchanged
      return true;
    }
    if (shared_->fallback) {
      // Unnest-Map behaviour: evaluate the step fully, crossing borders.
      NAVPATH_RETURN_NOT_OK(
          fallback_cursor_.Start(step_.axis, current_.right.node));
      fallback_active_ = true;
      continue;
    }
    // The right end must live in the plan's current cluster.
    NAVPATH_DCHECK(shared_->cluster.valid());
    NAVPATH_DCHECK(current_.right.node.page == shared_->cluster.page());
    cursor_ = AxisCursor(shared_->cluster.view(), step_.axis,
                         current_.right.node.slot);
    active_ = true;
  }
}

bool XStep::NextIntra(PathInstance* out) {
  // One scan per emitted instance: the cursor runs on to the next crossing
  // or matching record and charges the hops and node tests on the way.
  NavEntry entry;
  if (!cursor_.Scan(scan_tag_, &entry)) return false;
  const ClusterView& view = shared_->cluster.view();
  db_->clock()->ChargeCpu(db_->costs().instance_op);
  ++db_->metrics()->instances_created;
  *out = current_;
  if (entry.crossing) {
    // Inter-cluster edge: do not traverse; emit a right-incomplete
    // instance (S_R stays i-1) and keep enumerating locally.
    out->right = PathEnd{step_number_ - 1, view.IdOf(entry.slot), 0, true};
    return true;
  }
  out->right = PathEnd{step_number_, view.IdOf(entry.slot),
                       view.OrderOf(entry.slot), false};
  NAVPATH_PROFILE_STEP_ROW(shared_, step_number_, *out);
  return true;
}

}  // namespace navpath
