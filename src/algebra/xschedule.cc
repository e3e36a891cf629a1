#include "algebra/xschedule.h"

#include <algorithm>

namespace navpath {

Status XSchedule::Open() {
  q_.Clear();
  // The pull loop fills Q to k instances before the first cluster visit.
  q_.Reserve(options_.k);
  producer_done_ = false;
  ready_.clear();
  scanned_installs_ = db_->buffer()->installs();
  seeding_ = false;
  NAVPATH_CHECK(options_.k >= 1);
  return producer_->Open();
}

Status XSchedule::Close() {
  shared_->cluster.Clear();
  return producer_->Close();
}

void XSchedule::MarkReady(PageId page) {
  if (q_.SetReady(page)) ready_.push_back(page);
}

Status XSchedule::Enqueue(const PathInstance& inst) {
  const PageId cluster = inst.right.node.page;
  // The id comes from a border's partner bytes and sizes Q's page array.
  // Logical ids, like physical ones, name pages the drive holds.
  if (cluster >= db_->disk()->num_pages()) {
    return Status::Corruption("cluster " + std::to_string(cluster) +
                              " lies past the drive's last page");
  }
  db_->clock()->ChargeCpu(db_->costs().set_op);
  q_.Push(cluster, inst);
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
  while (!producer_done_ && q_.size() < options_.k) {
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

Status XSchedule::EnterCluster(PageId page,
                               [[maybe_unused]] const char* event) {
  NAVPATH_RETURN_NOT_OK(shared_->cluster.Switch(page));
  NAVPATH_TRACE(db_->tracer(),
                Instant(TraceCategory::kScheduler, kTrackScheduler, event,
                        db_->clock()->now(),
                        {{"page", page}, {"owner", shared_->owner_id}}));
  shared_->visited_clusters.insert(page);
  seeding_ = options_.speculative && !shared_->fallback;
  seed_slot_ = 0;
  seed_step_ = 0;
  return Status::OK();
}

Result<bool> XSchedule::SwitchToNextCluster() {
  for (;;) {
    if (shared_->cooperative) {
      // A sibling query's wait may already have installed clusters we
      // queued (completions are delivered to whichever query blocks
      // first); pick those up instead of blocking on our own prefetches.
      // Only an install can make a queued cluster newly qualify: Enqueue
      // marks clusters already resident, and entered clusters leave q_.
      // So the pages installed since the last check, mapped to logical
      // ids and filtered, are exactly the queued resident clusters not yet
      // ready; they are marked in ascending page order.
      const PageTranslator* translator = shared_->cluster.translator();
      installed_.clear();
      db_->buffer()->InstalledSince(scanned_installs_, &installed_);
      scanned_installs_ = db_->buffer()->installs();
      auto kept = installed_.begin();
      for (const PageId physical : installed_) {
        const PageId page = TranslateToLogical(translator, physical);
        if (!q_.empty(page) && !q_.ready(page) &&
            db_->buffer()->IsResident(TranslateToPhysical(translator, page))) {
          *kept++ = page;
        }
      }
      installed_.erase(kept, installed_.end());
      std::sort(installed_.begin(), installed_.end());
      for (const PageId page : installed_) MarkReady(page);
    }
    // Prefer clusters whose I/O already completed (or that are resident).
    while (!ready_.empty()) {
      const PageId page = ready_.front();
      ready_.pop_front();
      q_.ClearReady(page);
      if (q_.empty(page)) continue;  // stale marker
      NAVPATH_RETURN_NOT_OK(EnterCluster(page, "enter_cluster"));
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
            // Completions report the physical page; map back to the
            // logical page the queue is indexed by.
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
    // (e.g. after eviction). Serve the lowest one synchronously.
    const PageId page = q_.LowestNonEmpty();
    if (page != kInvalidPageId) {
      NAVPATH_RETURN_NOT_OK(EnterCluster(page, "enter_cluster_sync"));
      return true;
    }
    return false;
  }
}

Result<bool> XSchedule::Next(PathInstance* out) {
  for (;;) {
    NAVPATH_RETURN_NOT_OK(Replenish());
    if (shared_->cluster.valid()) {
      const PageId page = shared_->cluster.page();
      if (!q_.empty(page)) {
        *out = q_.Pop(page);
        db_->clock()->ChargeCpu(db_->costs().instance_op);
        return true;
      }
      if (seeding_ && !shared_->fallback) {
        if (NextClusterSeed(db_, shared_->cluster.view(),
                            options_.path_length, &seed_slot_, &seed_step_,
                            out)) {
          return true;
        }
        seeding_ = false;
      }
    }
    if (q_.size() == 0) {
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
