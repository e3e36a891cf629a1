#include "storage/disk.h"

#include <algorithm>
#include <cstring>

namespace navpath {

SimulatedDisk::SimulatedDisk(const DiskModel& model, std::size_t page_size,
                             SimClock* clock, Metrics* metrics)
    : model_(model), page_size_(page_size), clock_(clock), metrics_(metrics) {
  NAVPATH_CHECK(clock != nullptr);
  NAVPATH_CHECK(metrics != nullptr);
  NAVPATH_CHECK(page_size > 0);
}

PageId SimulatedDisk::AllocatePage() {
  auto buf = std::make_unique<std::byte[]>(page_size_);
  std::memset(buf.get(), 0, page_size_);
  const std::uint32_t crc = Crc32c(buf.get(), page_size_);
  pages_.push_back(std::move(buf));
  trailers_.push_back(PageTrailer{crc, 0});
  return static_cast<PageId>(pages_.size() - 1);
}

SimTime SimulatedDisk::ChargeAccess(PageId target) {
  if (trace_ != nullptr) trace_->push_back(target);
  const SimTime start = std::max(clock_->now(), drive_free_at_);
  const DiskModel::AccessCostParts cost =
      model_.AccessCostDecomposed(head_, target);
  if (head_ != kInvalidPageId && (target == head_ || target == head_ + 1)) {
    ++metrics_->disk_seq_reads;
  } else if (head_ != kInvalidPageId) {
    metrics_->disk_seek_pages +=
        head_ < target ? target - head_ : head_ - target;
  }
  drive_free_at_ = start + cost.seek + cost.transfer;
  busy_time_ += cost.seek + cost.transfer;
  if (cost.seek > 0) {
    NAVPATH_TRACE(tracer_, Span(TraceCategory::kDisk, kTrackDisk, "seek",
                                start, start + cost.seek,
                                {{"page", target}}));
  }
  NAVPATH_TRACE(tracer_, Span(TraceCategory::kDisk, kTrackDisk, "transfer",
                              start + cost.seek, drive_free_at_,
                              {{"page", target}}));
  head_ = target;
  return drive_free_at_;
}

Status SimulatedDisk::ReadSync(PageId id, std::byte* out) {
  if (id >= pages_.size()) {
    return Status::IOError("read past end of segment: page " +
                           std::to_string(id));
  }
  SimTime done = ChargeAccess(id);
  ++metrics_->disk_reads;
  FaultInjector::ReadFault fault;
  if (faults_ != nullptr) {
    fault = faults_->NextReadFault(id);
    if (fault.Any()) ++metrics_->faults_injected;
    if (fault.extra_latency > 0) {
      done += fault.extra_latency;
      drive_free_at_ = done;
      busy_time_ += fault.extra_latency;
    }
  }
  clock_->WaitUntil(done);
  if (fault.transient_error) {
    return Status::IOError("injected transient read fault on page " +
                           std::to_string(id));
  }
  std::memcpy(out, pages_[id].get(), page_size_);
  if (fault.corrupt) faults_->CorruptPayload(out, page_size_);
  return Status::OK();
}

Status SimulatedDisk::WriteSync(PageId id, const std::byte* data,
                                std::optional<std::uint32_t> crc) {
  if (id >= pages_.size()) {
    return Status::IOError("write past end of segment: page " +
                           std::to_string(id));
  }
  SimTime done = ChargeAccess(id);
  ++metrics_->disk_writes;
  FaultInjector::WriteFault fault;
  if (faults_ != nullptr) {
    fault = faults_->NextWriteFault(id);
    if (fault.Any()) ++metrics_->faults_injected;
    if (fault.extra_latency > 0) {
      done += fault.extra_latency;
      drive_free_at_ = done;
      busy_time_ += fault.extra_latency;
    }
  }
  clock_->WaitUntil(done);
  if (fault.transient_error) {
    return Status::IOError("injected transient write fault on page " +
                           std::to_string(id));
  }
  std::memcpy(pages_[id].get(), data, page_size_);
  trailers_[id].crc32c = crc.has_value() ? *crc : Crc32c(data, page_size_);
  return Status::OK();
}

Status SimulatedDisk::SubmitRead(PageId id) {
  if (id >= pages_.size()) {
    return Status::IOError("async read past end of segment: page " +
                           std::to_string(id));
  }
  NAVPATH_DCHECK(std::none_of(
      pending_.begin(), pending_.end(),
      [id](const PendingRequest& p) { return p.page == id; }));
  NAVPATH_DCHECK(pending_.empty() ||
                 pending_.back().submit_time <= clock_->now());
  pending_.push_back(PendingRequest{id, clock_->now()});
  ++metrics_->async_requests;
  NAVPATH_TRACE(tracer_, Instant(TraceCategory::kDisk, kTrackElevator,
                                 "submit", clock_->now(), {{"page", id}}));
  return Status::OK();
}

void SimulatedDisk::ServeOnePending() {
  NAVPATH_DCHECK(!pending_.empty());
  // The drive becomes idle at drive_free_at_; if no request had been
  // submitted by then it idles until the earliest submission, the front.
  const SimTime t_start =
      std::max(drive_free_at_, pending_.front().submit_time);

  // Sample the pending pool visible to the drive at this decision: the
  // paper predicts concurrent queries deepen it (Sec. 7), which is what
  // gives the elevator its reordering freedom.
  const std::uint64_t visible = static_cast<std::uint64_t>(
      std::upper_bound(pending_.begin(), pending_.end(), t_start,
                       [](SimTime t, const PendingRequest& p) {
                         return t < p.submit_time;
                       }) -
      pending_.begin());
  ++metrics_->elevator_batches;
  metrics_->elevator_depth_sum += visible;
  metrics_->elevator_depth_max =
      std::max(metrics_->elevator_depth_max, visible);

  // Elevator (C-SCAN) among the requests visible to the drive at t_start:
  // serve the lowest page at or above the head; when the sweep passes the
  // last queued page, wrap around to the lowest one. This is the
  // scheduling the paper attributes to the OS / on-disk controller.
  // Only the `queue_window` earliest-submitted visible requests compete
  // (the command-queue depth of the hardware): the front of pending_.
  const PageId sweep_from = head_ == kInvalidPageId ? 0 : head_;
  const std::size_t window = static_cast<std::size_t>(
      std::min<std::uint64_t>(visible, model_.queue_window));
  const std::size_t none = window;
  std::size_t best = none;
  std::size_t lowest = none;
  for (std::size_t i = 0; i < window; ++i) {
    const PageId p = pending_[i].page;
    if (lowest == none || p < pending_[lowest].page) lowest = i;
    if (p >= sweep_from && (best == none || p < pending_[best].page)) {
      best = i;
    }
  }
  if (best == none) best = lowest;  // wrap the sweep
  NAVPATH_DCHECK(best < window);
  if (best != 0) ++metrics_->async_reorderings;

  const PendingRequest chosen = pending_[best];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));

  // ChargeAccess starts at max(now, drive_free_at_); for background serving
  // the start time is t_start regardless of the CPU clock, so adjust
  // drive_free_at_ first.
  if (trace_ != nullptr) trace_->push_back(chosen.page);
  drive_free_at_ = std::max(drive_free_at_, t_start);
  const SimTime start = drive_free_at_;
  const DiskModel::AccessCostParts cost =
      model_.AccessCostDecomposed(head_, chosen.page);
  if (head_ != kInvalidPageId &&
      (chosen.page == head_ || chosen.page == head_ + 1)) {
    ++metrics_->disk_seq_reads;
  } else if (head_ != kInvalidPageId) {
    metrics_->disk_seek_pages += head_ < chosen.page ? chosen.page - head_
                                                     : head_ - chosen.page;
  }
  drive_free_at_ = start + cost.seek + cost.transfer;
  busy_time_ += cost.seek + cost.transfer;
  NAVPATH_TRACE(tracer_,
                Span(TraceCategory::kDisk, kTrackElevator, "queued",
                     chosen.submit_time, start,
                     {{"page", chosen.page}, {"depth", visible}}));
  if (cost.seek > 0) {
    NAVPATH_TRACE(tracer_, Span(TraceCategory::kDisk, kTrackDisk, "seek",
                                start, start + cost.seek,
                                {{"page", chosen.page}}));
  }
  NAVPATH_TRACE(tracer_, Span(TraceCategory::kDisk, kTrackDisk, "transfer",
                              start + cost.seek, drive_free_at_,
                              {{"page", chosen.page}}));
  head_ = chosen.page;
  ++metrics_->disk_reads;
  CompletedRequest done{chosen.page, drive_free_at_};
  if (faults_ != nullptr) {
    const FaultInjector::ReadFault fault =
        faults_->NextReadFault(chosen.page);
    if (fault.Any()) ++metrics_->faults_injected;
    if (fault.extra_latency > 0) {
      drive_free_at_ += fault.extra_latency;
      busy_time_ += fault.extra_latency;
      done.complete_time = drive_free_at_;
    }
    done.failed = fault.transient_error;
    done.corrupt = fault.corrupt;
  }
  completed_.push(done);
}

SimulatedDisk::AsyncCompletion SimulatedDisk::Deliver(
    const CompletedRequest& req, std::byte* out) {
  AsyncCompletion completion;
  completion.page = req.page;
  if (req.failed) {
    completion.io =
        Status::IOError("injected transient fault on async read of page " +
                        std::to_string(req.page));
    return completion;
  }
  std::memcpy(out, pages_[req.page].get(), page_size_);
  if (req.corrupt) faults_->CorruptPayload(out, page_size_);
  return completion;
}

Result<SimulatedDisk::AsyncCompletion> SimulatedDisk::WaitForCompletion(
    std::byte* out) {
  if (completed_.empty()) {
    if (pending_.empty()) {
      return Status::NotFound("no asynchronous request in flight");
    }
    ServeOnePending();
  }
  const CompletedRequest req = completed_.top();
  completed_.pop();
  clock_->WaitUntil(req.complete_time);
  return Deliver(req, out);
}

std::optional<SimulatedDisk::AsyncCompletion> SimulatedDisk::PollCompletion(
    std::byte* out) {
  const SimTime now = clock_->now();
  for (;;) {
    if (!completed_.empty()) {
      if (completed_.top().complete_time <= now) {
        const CompletedRequest req = completed_.top();
        completed_.pop();
        return Deliver(req, out);
      }
      return std::nullopt;  // in progress but not done yet
    }
    if (pending_.empty()) return std::nullopt;
    // Only commit the drive's next scheduling decision if the drive would
    // have made it by now; otherwise later submissions could still change
    // the elevator's choice.
    if (std::max(drive_free_at_, pending_.front().submit_time) > now) {
      return std::nullopt;
    }
    ServeOnePending();
  }
}

}  // namespace navpath
