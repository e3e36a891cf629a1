#include "algebra/xassembly.h"

#include <utility>

#include "algebra/xschedule.h"

namespace navpath {

Status XAssembly::Open() {
  r_ = db_->table_pool()->Take();
  s_.clear();
  s_size_ = 0;
  pending_.clear();
  pending_head_ = 0;
  return producer_->Open();
}

Status XAssembly::Close() {
  db_->table_pool()->GiveBack(std::move(r_));
  return producer_->Close();
}

PathEnd XAssembly::TargetOf(const PathEnd& right) const {
  NAVPATH_DCHECK(right.border);
  NAVPATH_DCHECK(shared_->cluster.valid());
  NAVPATH_DCHECK(right.node.page == shared_->cluster.page());
  const NodeID partner = shared_->cluster.view().PartnerOf(right.node.slot);
  // Storing a node reference outside the pinned cluster unswizzles it.
  db_->clock()->ChargeCpu(db_->costs().unswizzle);
  ++db_->metrics()->unswizzle_ops;
  return PathEnd{right.step, partner, 0, true};
}

void XAssembly::TriggerFallback() {
  shared_->fallback = true;
  s_.clear();
  s_size_ = 0;
  ++db_->metrics()->fallback_activations;
  NAVPATH_TRACE(db_->tracer(),
                Instant(TraceCategory::kScheduler, kTrackScheduler,
                        "fallback", db_->clock()->now(),
                        {{"owner", shared_->owner_id}}));
}

Status XAssembly::Reach(const PathInstance& inst) {
  // Iterative closure; each work item carries the provenance left end.
  // The stack holds only what S releases, popped last in first out; it is
  // a member so that arrivals do not allocate, and clearing it first
  // drops whatever a failed earlier call left behind.
  worklist_.clear();
  NAVPATH_RETURN_NOT_OK(ReachOne(inst));
  while (!worklist_.empty()) {
    const PathInstance item = worklist_.back();
    worklist_.pop_back();
    NAVPATH_RETURN_NOT_OK(ReachOne(item));
  }
  return Status::OK();
}

Status XAssembly::ReachOne(const PathInstance& item) {
  const PathEnd& e = item.right;
  if (options_.first_step_reaches_all && e.step == 0 && e.border) {
    // Implicitly reachable; nothing is ever stored under step-0 ends.
    return Status::OK();
  }
  db_->clock()->ChargeCpu(db_->costs().set_op);
  ++db_->metrics()->r_set_probes;
  if (!r_.insert(e.Key())) return Status::OK();  // already known

  if (!e.border) {
#if NAVPATH_OBSERVE_ENABLED
    // Speculatively assembled rows went uncounted at their XStep
    // emission (the left end was an unvalidated border); count them at
    // the step where the closure proved them reachable.
    if (shared_->profiler != nullptr &&
        !(item.left_complete() && item.left.step == 0)) {
      shared_->profiler->CountStepRow(static_cast<std::size_t>(e.step));
    }
#endif
    if (e.step == static_cast<std::int32_t>(options_.path_length)) {
      ++db_->metrics()->instances_full;
      pending_.push_back(item);
    }
    // Core ends below full length never carry closure info: XStep
    // chains extend them inline, so nothing is stored under them.
    return Status::OK();
  }

  // A border end became reachable: consult speculative knowledge (the
  // probe is charged only on a hit, so an empty S needs no lookup)...
  if (s_size_ != 0) {
    auto it = s_.find(e.Key());
    if (it != s_.end()) {
      db_->clock()->ChargeCpu(db_->costs().set_op);
      ++db_->metrics()->s_set_probes;
      for (const PathInstance& x : it->second) {
        // x: "if e is reachable, x.right is reachable".
        worklist_.push_back(x);
      }
      s_size_ -= it->second.size();
      s_.erase(it);
    }
  }
  // ...and/or schedule a visit of the target cluster.
  if (schedule_ != nullptr) {
    const bool covered_by_seeds =
        options_.speculative && !shared_->fallback &&
        shared_->visited_clusters.contains(e.node.page);
    if (!covered_by_seeds) {
      NAVPATH_RETURN_NOT_OK(schedule_->AddWork(PathInstance{item.left, e}));
    }
  }
  return Status::OK();
}

Status XAssembly::HandleArrival(const PathInstance& y) {
  if (y.left_complete()) {
    if (y.right_complete()) {
      // The XStep chain only releases left-complete instances when they
      // are full or stuck at a border.
      NAVPATH_DCHECK(y.right.step ==
                     static_cast<std::int32_t>(options_.path_length));
      return Reach(y);
    }
    // Right-incomplete: resolve target() and register/schedule.
    return Reach(PathInstance{y.left, TargetOf(y.right)});
  }

  // Left-incomplete (speculative) instance.
  PathInstance x = y;
  if (!x.right_complete()) {
    x.right = TargetOf(x.right);  // resolve now, while the cluster is pinned
  }
  const std::uint64_t key = x.left.Key();
  const bool left_known =
      (options_.first_step_reaches_all && x.left.step == 0) ||
      r_.contains(key);
  db_->clock()->ChargeCpu(db_->costs().set_op);
  ++db_->metrics()->r_set_probes;
  if (left_known) {
    // The hypothesis already holds — this includes results of scheduled
    // work items whose left end is a previously reached border, which
    // must be delivered even in fallback mode.
    return Reach(x);
  }
  if (shared_->fallback) {
    // Unreached speculation is redundant in fallback mode: future
    // crossings are always scheduled and evaluated in full.
    return Status::OK();
  }
  db_->clock()->ChargeCpu(db_->costs().set_op);
  ++db_->metrics()->s_set_probes;
  s_[key].push_back(x);
  ++s_size_;
  if (options_.s_budget > 0 && s_size_ > options_.s_budget) {
    TriggerFallback();
  }
  return Status::OK();
}

Result<bool> XAssembly::Next(PathInstance* out) {
  for (;;) {
    if (pending_head_ < pending_.size()) {
      *out = pending_[pending_head_++];
      if (pending_head_ == pending_.size()) {
        pending_.clear();
        pending_head_ = 0;
      }
      return true;
    }
    PathInstance y;
    NAVPATH_ASSIGN_OR_RETURN(const bool have, producer_->Pull(&y));
    if (!have) return false;
    NAVPATH_RETURN_NOT_OK(HandleArrival(y));
  }
}

}  // namespace navpath
