#include "algebra/xschedule.h"

namespace navpath {

Status XSchedule::Open() {
  q_.clear();
  q_size_ = 0;
  producer_done_ = false;
  ready_.clear();
  ready_set_.clear();
  scanned_installs_ = db_->buffer()->installs();
  seeding_ = false;
  clusters_entered_ = 0;
  NAVPATH_CHECK(options_.k >= 1);
  return producer_->Open();
}

Status XSchedule::Close() {
  shared_->cluster.Clear();
  return producer_->Close();
}

void XSchedule::MarkReady(PageId page) {
  if (ready_set_.insert(page)) ready_.push_back(page);
}

Status XSchedule::Enqueue(const PathInstance& inst) {
  const PageId cluster = inst.right.node.page;
  db_->clock()->ChargeCpu(db_->costs().set_op);
  q_[cluster].push_back(inst);
  ++q_size_;
  // The queue and ready set stay in logical page ids; only the
  // buffer/drive interaction below uses the snapshot's physical mapping.
  NAVPATH_ASSIGN_OR_RETURN(
      const BufferManager::PrefetchOutcome outcome,
      db_->buffer()->Prefetch(
          TranslateToPhysical(shared_->cluster.translator(), cluster),
          shared_->owner_id));
  if (outcome == BufferManager::PrefetchOutcome::kResident) {
    MarkReady(cluster);
  }
  return Status::OK();
}

Status XSchedule::AddWork(const PathInstance& inst) {
  // Unswizzled NodeIDs enter the queue; the cluster is re-entered later.
  return Enqueue(inst);
}

Status XSchedule::Replenish() {
  while (!producer_done_ && q_size_ < options_.k) {
    PathInstance inst;
    NAVPATH_ASSIGN_OR_RETURN(const bool have, producer_->Pull(&inst));
    if (!have) {
      producer_done_ = true;
      break;
    }
    NAVPATH_RETURN_NOT_OK(Enqueue(inst));
  }
  return Status::OK();
}

Result<bool> XSchedule::SwitchToNextCluster() {
  for (;;) {
    if (shared_->cooperative &&
        scanned_installs_ != db_->buffer()->installs()) {
      // A sibling query's wait may already have installed clusters we
      // queued (completions are delivered to whichever query blocks
      // first); pick those up instead of blocking on our own prefetches.
      // Only an install can make a queued cluster newly qualify: Enqueue
      // marks clusters already resident, and entered clusters leave q_.
      scanned_installs_ = db_->buffer()->installs();
      for (const auto& [page, entries] : q_) {
        if (!entries.empty() && !ready_set_.contains(page) &&
            db_->buffer()->IsResident(TranslateToPhysical(
                shared_->cluster.translator(), page))) {
          MarkReady(page);
        }
      }
    }
    // Prefer clusters whose I/O already completed (or that are resident).
    while (!ready_.empty()) {
      const PageId page = ready_.front();
      ready_.pop_front();
      ready_set_.erase(page);
      auto it = q_.find(page);
      if (it == q_.end() || it->second.empty()) continue;  // stale marker
      NAVPATH_RETURN_NOT_OK(shared_->cluster.Switch(page));
      NAVPATH_TRACE(db_->tracer(),
                    Instant(TraceCategory::kScheduler, kTrackScheduler,
                            "enter_cluster", db_->clock()->now(),
                            {{"page", page}, {"owner", shared_->owner_id}}));
      shared_->visited_clusters.insert(page);
      ++clusters_entered_;
      seeding_ = options_.speculative && !shared_->fallback;
      seed_slot_ = 0;
      seed_step_ = 0;
      return true;
    }
    if (db_->buffer()->HasPrefetchInFlight()) {
      if (shared_->cooperative && shared_->yield_on_block) {
        // Collect whatever the drive finished by now without forcing it
        // to serve; if nothing is due, hand control back to the workload
        // scheduler instead of draining the pending pool with a blocking
        // wait. The pool keeps deepening while sibling queries run.
        Result<PageId> polled = db_->buffer()->PollAnyPrefetch();
        if (polled.ok()) {
          if (*polled != kInvalidPageId) {
            // Completions report the physical page; map back before
            // matching against the logical ready set.
            MarkReady(TranslateToLogical(shared_->cluster.translator(),
                                         *polled));
            continue;
          }
          shared_->yielded = true;
          ++shared_->io_yields;
          NAVPATH_TRACE(db_->tracer(),
                        Instant(TraceCategory::kScheduler, kTrackScheduler,
                                "yield", db_->clock()->now(),
                                {{"owner", shared_->owner_id}}));
          return false;
        }
        if (!polled.status().IsIOError()) return polled.status();
        ++db_->metrics()->fault_fallbacks;
        continue;
      }
      // Block until the I/O subsystem completes *some* request; the disk
      // chooses which (shortest seek first).
      ++shared_->io_blocks;
      [[maybe_unused]] const SimTime block_begin = db_->clock()->now();
      Result<PageId> waited = db_->buffer()->WaitAnyPrefetch();
      NAVPATH_TRACE(db_->tracer(),
                    Span(TraceCategory::kScheduler, kTrackScheduler,
                         "io_block", block_begin, db_->clock()->now(),
                         {{"owner", shared_->owner_id}}));
      if (waited.ok()) {
        MarkReady(TranslateToLogical(shared_->cluster.translator(),
                                     *waited));
        continue;
      }
      // Corruption (and anything else unrecoverable) fails the plan with a
      // real Status; a transient I/O failure that outlasted the buffer's
      // retry budget degrades to the synchronous entry path below instead
      // of killing the query.
      if (!waited.status().IsIOError()) return waited.status();
      ++db_->metrics()->fault_fallbacks;
    }
    // Safety net: queued clusters whose ready marker was consumed early
    // (e.g. after eviction). Serve the first one synchronously.
    for (auto& [page, entries] : q_) {
      if (entries.empty()) continue;
      NAVPATH_RETURN_NOT_OK(shared_->cluster.Switch(page));
      NAVPATH_TRACE(db_->tracer(),
                    Instant(TraceCategory::kScheduler, kTrackScheduler,
                            "enter_cluster_sync", db_->clock()->now(),
                            {{"page", page}, {"owner", shared_->owner_id}}));
      shared_->visited_clusters.insert(page);
      ++clusters_entered_;
      seeding_ = options_.speculative && !shared_->fallback;
      seed_slot_ = 0;
      seed_step_ = 0;
      return true;
    }
    return false;
  }
}

bool XSchedule::EmitSeed(PathInstance* out) {
  if (!seeding_ || shared_->fallback) return false;
  const ClusterView& view = shared_->cluster.view();
  while (seed_slot_ < view.slot_count()) {
    if (view.IsLive(seed_slot_) && view.IsBorder(seed_slot_) &&
        seed_step_ < options_.path_length) {
      *out = PathInstance::Seed(view.IdOf(seed_slot_), seed_step_);
      ++seed_step_;
      db_->clock()->ChargeCpu(db_->costs().instance_op);
      ++db_->metrics()->speculative_instances;
      ++db_->metrics()->instances_created;
      return true;
    }
    view.ChargeHop();
    seed_step_ = 0;
    ++seed_slot_;
  }
  seeding_ = false;
  return false;
}

Result<bool> XSchedule::Next(PathInstance* out) {
  for (;;) {
    NAVPATH_RETURN_NOT_OK(Replenish());
    if (shared_->cluster.valid()) {
      auto it = q_.find(shared_->cluster.page());
      if (it != q_.end()) {
        if (!it->second.empty()) {
          *out = it->second.front();
          it->second.pop_front();
          --q_size_;
          db_->clock()->ChargeCpu(db_->costs().instance_op);
          return true;
        }
        q_.erase(it);
      }
      if (EmitSeed(out)) return true;
    }
    if (q_size_ == 0) {
      // Replenish drained the producer, Q is empty, seeds are done.
      shared_->cluster.Clear();
      return false;
    }
    NAVPATH_ASSIGN_OR_RETURN(const bool switched, SwitchToNextCluster());
    if (!switched) {
      shared_->cluster.Clear();
      return false;
    }
  }
}

}  // namespace navpath
