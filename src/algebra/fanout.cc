#include "algebra/fanout.h"

#include <algorithm>

namespace navpath {

FanOut::FanOut(Database* db, PathOperator* producer_root,
               PlanSharedState* producer_shared,
               const FanOutOptions& options)
    : db_(db),
      producer_root_(producer_root),
      producer_shared_(producer_shared),
      options_(options) {
  NAVPATH_CHECK(db != nullptr);
  NAVPATH_CHECK(producer_root != nullptr);
  NAVPATH_CHECK(producer_shared != nullptr);
  NAVPATH_CHECK(options_.max_buffered >= 1);
}

std::size_t FanOut::AddConsumer() {
  consumers_.push_back(Consumer{});
  return consumers_.size() - 1;
}

Status FanOut::OpenFor(std::size_t slot) {
  NAVPATH_CHECK(slot < consumers_.size());
  Consumer& consumer = consumers_[slot];
  NAVPATH_CHECK(!consumer.open && !consumer.closed);
  consumer.open = true;
  if (!producer_open_) {
    producer_open_ = true;
    return producer_root_->Open();
  }
  return Status::OK();
}

Status FanOut::CloseFor(std::size_t slot) {
  NAVPATH_CHECK(slot < consumers_.size());
  Consumer& consumer = consumers_[slot];
  if (consumer.closed) return Status::OK();
  consumer.closed = true;
  consumer.open = false;
  Trim();
  for (const Consumer& c : consumers_) {
    if (!c.closed) return Status::OK();
  }
  if (producer_open_ && !producer_closed_) {
    producer_closed_ = true;
    return producer_root_->Close();
  }
  return Status::OK();
}

void FanOut::Trim() {
  // The buffer keeps only the window between the slowest live consumer
  // and the stream head. Closed and detached consumers hold nothing.
  std::uint64_t min_cursor = next_index_;
  bool any_live = false;
  for (const Consumer& c : consumers_) {
    if (c.closed || c.detached) continue;
    any_live = true;
    min_cursor = std::min(min_cursor, c.cursor);
  }
  if (!any_live) {
    buffer_.clear();
    base_ = next_index_;
    return;
  }
  while (base_ < min_cursor && !buffer_.empty()) {
    buffer_.pop_front();
    ++base_;
  }
}

void FanOut::DetachLaggard() {
  std::size_t victim = consumers_.size();
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    const Consumer& c = consumers_[i];
    if (c.closed || c.detached) continue;
    if (victim == consumers_.size() ||
        c.cursor < consumers_[victim].cursor) {
      victim = i;
    }
  }
  NAVPATH_CHECK(victim < consumers_.size());
  consumers_[victim].detached = true;
  ++spills_;
  NAVPATH_TRACE(db_->tracer(),
                Instant(TraceCategory::kScheduler, kTrackScheduler,
                        "share_detach", db_->clock()->now(),
                        {{"slot", victim}}));
  Trim();
}

Result<bool> FanOut::PullFor(std::size_t slot, PathInstance* out,
                             PlanSharedState* consumer_shared) {
  NAVPATH_CHECK(slot < consumers_.size());
  ++consumer_pulls_;
  for (;;) {
    Consumer& consumer = consumers_[slot];
    if (consumer.detached) return false;
    if (consumer.cursor < next_index_) {
      NAVPATH_DCHECK(consumer.cursor >= base_);
      *out = buffer_[consumer.cursor - base_];
      ++consumer.cursor;
      db_->clock()->ChargeCpu(db_->costs().instance_op);
      Trim();
      return true;
    }
    if (producer_done_) return false;

    // Advance the producer on behalf of this consumer: forward the
    // scheduler's yield grant, and account the producer's waits onto the
    // consumer so the workload classifies it like a private plan.
    producer_shared_->yield_on_block = consumer_shared->yield_on_block;
    producer_shared_->io_priority = consumer_shared->io_priority;
    const std::uint64_t blocks_before = producer_shared_->io_blocks;
    ++producer_pulls_;
    PathInstance inst;
    [[maybe_unused]] const SimTime pull_begin = db_->clock()->now();
    NAVPATH_ASSIGN_OR_RETURN(const bool have, producer_root_->Pull(&inst));
    NAVPATH_TRACE(db_->tracer(),
                  Span(TraceCategory::kScheduler, kTrackScheduler,
                       "share_producer_pull", pull_begin, db_->clock()->now(),
                       {{"owner", producer_shared_->owner_id},
                        {"produced", have ? 1u : 0u}}));
    consumer_shared->io_blocks += producer_shared_->io_blocks - blocks_before;
    if (!have) {
      if (producer_shared_->yielded) {
        producer_shared_->yielded = false;
        consumer_shared->yielded = true;
        ++consumer_shared->io_yields;
        return false;
      }
      producer_done_ = true;
      // Nothing buffered beyond every cursor; drop the window.
      Trim();
      return false;
    }
    // The producer may derive the same prefix node along several
    // navigations; each distinct right end is streamed exactly once.
    db_->clock()->ChargeCpu(db_->costs().set_op);
    if (!emitted_.insert(inst.right.Key())) {
      ++dedup_hits_;
      continue;
    }
    if (buffer_.size() >= options_.max_buffered) DetachLaggard();
    buffer_.push_back(inst);
    ++next_index_;
    max_buffered_seen_ =
        std::max(max_buffered_seen_,
                 static_cast<std::uint64_t>(buffer_.size()));
  }
}

}  // namespace navpath
