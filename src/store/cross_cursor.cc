#include "store/cross_cursor.h"

namespace navpath {

Status CrossClusterCursor::PushLevel(Axis axis, NodeID at) {
  // Crossing into a cluster translates a NodeID into a buffer address:
  // a swizzle plus possibly a synchronous page read.
  NAVPATH_ASSIGN_OR_RETURN(
      PageGuard guard,
      db_->buffer()->FixSwizzle(TranslateToPhysical(translator_, at.page)));
  if (on_visit_) on_visit_(at.page);
  // Only the top level keeps its page pinned; suspended levels are
  // re-fixed on resume. This bounds pin usage to one frame regardless of
  // crossing depth (and charges the realistic re-probe cost).
  if (!stack_.empty()) stack_.back()->guard.Release();
  auto level = std::make_unique<Level>();
  level->page = at.page;
  const ClusterView view = db_->MakeView(guard, at.page);
  level->guard = std::move(guard);
  level->cursor = AxisCursor(view, axis, at.slot);
  stack_.push_back(std::move(level));
  return Status::OK();
}

Result<bool> CrossClusterCursor::Next(LogicalNode* out) {
  while (!stack_.empty()) {
    Level& top = *stack_.back();
    if (!top.guard.valid()) {
      // Resuming a suspended level: fix its page again.
      NAVPATH_ASSIGN_OR_RETURN(
          PageGuard guard,
          db_->buffer()->Fix(TranslateToPhysical(translator_, top.page)));
      const ClusterView view = db_->MakeView(guard, top.page);
      top.guard = std::move(guard);
      top.cursor.Rebind(view);
    }
    NavEntry entry;
    if (!top.cursor.Next(&entry)) {
      stack_.pop_back();
      continue;
    }
    const ClusterView view = db_->MakeView(top.guard, top.page);
    if (entry.crossing) {
      const NodeID partner = view.PartnerOf(entry.slot);
      ++db_->metrics()->inter_cluster_hops;
      NAVPATH_RETURN_NOT_OK(PushLevel(axis_, partner));
      continue;
    }
    out->id = view.IdOf(entry.slot);
    out->tag = view.TagOf(entry.slot);
    out->order = view.OrderOf(entry.slot);
    return true;
  }
  return false;
}

Status CrossClusterCursor::Start(Axis axis, NodeID origin) {
  stack_.clear();
  axis_ = axis;
  return PushLevel(axis, origin);
}

Result<LogicalNode> CrossClusterCursor::Describe(NodeID id) {
  NAVPATH_ASSIGN_OR_RETURN(
      PageGuard guard,
      db_->buffer()->Fix(TranslateToPhysical(translator_, id.page)));
  if (on_visit_) on_visit_(id.page);
  const ClusterView view = db_->MakeView(guard, id.page);
  TreePage::CheckedRecord rec;
  if (!view.page().ReadChecked(id.slot, &rec) ||
      rec.kind != RecordKind::kCore) {
    return Status::InvalidArgument("not a core node: " + id.ToString());
  }
  return LogicalNode{id, rec.tag, view.OrderOf(id.slot)};
}

}  // namespace navpath
