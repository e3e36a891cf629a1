#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstring>

namespace navpath {

PageGuard::PageGuard(BufferManager* bm, std::size_t frame_idx)
    : bm_(bm), frame_idx_(frame_idx) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : bm_(other.bm_), frame_idx_(other.frame_idx_) {
  other.bm_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    frame_idx_ = other.frame_idx_;
    other.bm_ = nullptr;
  }
  return *this;
}

PageId PageGuard::page_id() const {
  NAVPATH_DCHECK(valid());
  return bm_->FramePage(frame_idx_);
}

std::byte* PageGuard::data() {
  NAVPATH_DCHECK(valid());
  return bm_->FrameData(frame_idx_);
}

const std::byte* PageGuard::data() const {
  NAVPATH_DCHECK(valid());
  return bm_->FrameData(frame_idx_);
}

void PageGuard::MarkDirty() {
  NAVPATH_DCHECK(valid());
  bm_->FrameMarkDirty(frame_idx_);
}

void PageGuard::Release() {
  if (bm_ != nullptr) {
    bm_->Unpin(frame_idx_);
    bm_ = nullptr;
  }
}

BufferManager::BufferManager(SimulatedDisk* disk, std::size_t capacity_pages,
                             const CpuCostModel& costs, SimClock* clock,
                             Metrics* metrics, const RetryPolicy& retry)
    : disk_(disk),
      capacity_(capacity_pages),
      costs_(costs),
      clock_(clock),
      metrics_(metrics),
      retry_(retry),
      scratch_(std::make_unique<std::byte[]>(disk->page_size())) {
  NAVPATH_CHECK(capacity_pages > 0);
  NAVPATH_CHECK(retry.max_attempts >= 1);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    free_frames_.push_back(capacity_ - 1 - i);  // hand out frame 0 first
  }
}

BufferManager::~BufferManager() {
  // Teardown must not abort on an injected (or real) write failure that
  // survived its retries; callers who need durability call FlushAll()
  // themselves and observe the Status.
  (void)FlushAll();
}

bool BufferManager::VerifyChecksum(PageId id, const std::byte* payload) const {
  return Crc32c(payload, disk_->page_size()) == disk_->PageCrc(id);
}

Status BufferManager::ReadPageWithRetry(PageId id, std::byte* out) {
  SimTime backoff = retry_.initial_backoff;
  Status last;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_->WaitUntil(clock_->now() + backoff);
      backoff = static_cast<SimTime>(static_cast<double>(backoff) *
                                     retry_.multiplier);
      ++metrics_->fault_retries;
    }
    Status s = disk_->ReadSync(id, out);
    if (!s.ok()) {
      last = std::move(s);
      continue;
    }
    if (VerifyChecksum(id, out)) return Status::OK();
    ++metrics_->corruptions_detected;
    last = Status::Corruption("page " + std::to_string(id) +
                              " failed checksum verification");
  }
  return last;
}

Status BufferManager::WritePageWithRetry(PageId id, const std::byte* data) {
  const std::uint32_t crc = Crc32c(data, disk_->page_size());
  SimTime backoff = retry_.initial_backoff;
  Status last;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_->WaitUntil(clock_->now() + backoff);
      backoff = static_cast<SimTime>(static_cast<double>(backoff) *
                                     retry_.multiplier);
      ++metrics_->fault_retries;
    }
    Status s = disk_->WriteSync(id, data, crc);
    if (s.ok()) return s;
    last = std::move(s);
  }
  return last;
}

void BufferManager::Unpin(std::size_t frame_idx) {
  Frame& f = frames_[frame_idx];
  NAVPATH_DCHECK(f.pin_count > 0);
  --f.pin_count;
  if (f.pin_count == 0 && unpin_listener_) {
    unpin_listener_(f.page_id);
  }
}

Result<std::size_t> BufferManager::GetFreeFrame() {
  if (!free_frames_.empty()) {
    const std::size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // Evict the least-recently-used unpinned frame. Frames claimed by a
  // concurrent query (prefetched, not yet consumed) are spared unless
  // every unpinned frame is claimed — evicting one forces its owner into
  // a synchronous re-read later, the costliest outcome.
  std::size_t victim = capacity_;
  std::uint64_t oldest = ~0ull;
  std::size_t claimed_victim = capacity_;
  std::uint64_t claimed_oldest = ~0ull;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.pin_count != 0) continue;
    if (f.claimed) {
      if (f.last_use < claimed_oldest) {
        claimed_oldest = f.last_use;
        claimed_victim = i;
      }
    } else if (f.last_use < oldest) {
      oldest = f.last_use;
      victim = i;
    }
  }
  if (victim == capacity_) victim = claimed_victim;
  if (victim == capacity_) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  Frame& f = frames_[victim];
  f.claimed = false;
  if (f.dirty) {
    NAVPATH_RETURN_NOT_OK(WritePageWithRetry(f.page_id, f.data.get()));
    f.dirty = false;
  }
  Unmap(f.page_id);
  ++metrics_->buffer_evictions;
  NAVPATH_TRACE(tracer_, Instant(TraceCategory::kBuffer, kTrackBuffer,
                                 "evict", clock_->now(),
                                 {{"page", f.page_id}}));
  f.page_id = kInvalidPageId;
  return victim;
}

Result<std::size_t> BufferManager::InstallFromScratch(PageId id) {
  // Only pages of the disk are ever installed, which keeps the dense page
  // table no larger than the disk.
  NAVPATH_CHECK(id < disk_->num_pages());
  NAVPATH_ASSIGN_OR_RETURN(const std::size_t idx, GetFreeFrame());
  Frame& f = frames_[idx];
  if (f.data == nullptr) {
    f.data = std::make_unique<std::byte[]>(disk_->page_size());
  }
  std::memcpy(f.data.get(), scratch_.get(), disk_->page_size());
  f.page_id = id;
  f.pin_count = 0;
  f.dirty = false;
  f.claimed = false;
  f.last_use = ++use_counter_;
  if (id >= page_table_.size()) {
    page_table_.resize(static_cast<std::size_t>(id) + 1, kNoFrame);
  }
  NAVPATH_DCHECK(page_table_[id] == kNoFrame);
  page_table_[id] = static_cast<std::uint32_t>(idx);
  ++pages_resident_;
  ++installs_;
  clock_->ChargeCpu(costs_.page_install);
  return idx;
}

Result<std::size_t> BufferManager::FixInternal(PageId id, bool charge_swizzle) {
  clock_->ChargeCpu(costs_.buffer_probe);
  if (charge_swizzle) {
    clock_->ChargeCpu(costs_.swizzle);
    ++metrics_->swizzle_ops;
  }
  std::size_t idx = FrameOf(id);
  if (idx != kNoFrame) {
    ++metrics_->buffer_hits;
  } else {
    ++metrics_->buffer_misses;
    [[maybe_unused]] const SimTime miss_begin = clock_->now();
    NAVPATH_RETURN_NOT_OK(ReadPageWithRetry(id, scratch_.get()));
    NAVPATH_ASSIGN_OR_RETURN(idx, InstallFromScratch(id));
    NAVPATH_TRACE(tracer_, Span(TraceCategory::kBuffer, kTrackBuffer,
                                "fix_miss", miss_begin, clock_->now(),
                                {{"page", id}}));
  }
  Frame& f = frames_[idx];
  ++f.pin_count;
  f.claimed = false;  // first fix consumes a concurrent query's claim
  f.last_use = ++use_counter_;
  return idx;
}

Result<PageGuard> BufferManager::Fix(PageId id) {
  NAVPATH_ASSIGN_OR_RETURN(const std::size_t idx,
                           FixInternal(id, /*charge_swizzle=*/false));
  return PageGuard(this, idx);
}

Result<PageGuard> BufferManager::FixSwizzle(PageId id) {
  NAVPATH_ASSIGN_OR_RETURN(const std::size_t idx,
                           FixInternal(id, /*charge_swizzle=*/true));
  return PageGuard(this, idx);
}

Result<PageGuard> BufferManager::NewPage() {
  const PageId id = disk_->AllocatePage();
  std::memset(scratch_.get(), 0, disk_->page_size());
  NAVPATH_ASSIGN_OR_RETURN(const std::size_t idx, InstallFromScratch(id));
  Frame& f = frames_[idx];
  ++f.pin_count;
  f.dirty = true;
  return PageGuard(this, idx);
}

Result<PageGuard> BufferManager::AdoptPage(PageId id,
                                           const std::byte* content) {
  std::size_t idx = FrameOf(id);
  const bool resident = idx != kNoFrame;
  if (!resident) {
    std::memcpy(scratch_.get(), content, disk_->page_size());
    NAVPATH_ASSIGN_OR_RETURN(idx, InstallFromScratch(id));
  }
  Frame& f = frames_[idx];
  if (resident) {
    std::memcpy(f.data.get(), content, disk_->page_size());
    clock_->ChargeCpu(costs_.page_install);
  }
  ++f.pin_count;
  f.dirty = true;
  f.claimed = false;
  f.last_use = ++use_counter_;
  return PageGuard(this, idx);
}

Status BufferManager::Discard(PageId id) {
  const std::size_t idx = FrameOf(id);
  if (idx == kNoFrame) return Status::OK();
  Frame& f = frames_[idx];
  if (f.pin_count > 0) {
    return Status::InvalidArgument("cannot discard a pinned page");
  }
  Unmap(id);
  f.page_id = kInvalidPageId;
  f.dirty = false;
  f.claimed = false;
  free_frames_.push_back(idx);
  return Status::OK();
}

Result<BufferManager::PrefetchOutcome> BufferManager::Prefetch(
    PageId id, std::uint32_t owner) {
  const std::size_t resident = FrameOf(id);
  if (resident != kNoFrame) {
    // A concurrent query will come back for this page once its scheduler
    // pulls the corresponding cluster; shield it from eviction until
    // then, exactly like a prefetch it had paid I/O for.
    if (owner != 0) frames_[resident].claimed = true;
    return PrefetchOutcome::kResident;
  }
  const auto it = in_flight_.find(id);
  if (it != in_flight_.end()) {
    std::vector<std::uint32_t>& owners = it->second;
    if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      // A different query already has this page on order: register
      // interest on the existing request instead of double-submitting.
      owners.push_back(owner);
      ++metrics_->requests_merged;
    }
    return PrefetchOutcome::kInFlight;
  }
  NAVPATH_RETURN_NOT_OK(disk_->SubmitRead(id));
  in_flight_.emplace(id, std::vector<std::uint32_t>{owner});
  return PrefetchOutcome::kSubmitted;
}

bool BufferManager::ClaimedByQuery(PageId id) const {
  const auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return false;
  for (const std::uint32_t owner : it->second) {
    if (owner != 0) return true;
  }
  return false;
}

std::size_t BufferManager::PendingFor(std::uint32_t owner) const {
  std::size_t n = 0;
  for (const auto& [page, owners] : in_flight_) {
    (void)page;
    if (std::find(owners.begin(), owners.end(), owner) != owners.end()) ++n;
  }
  return n;
}

Result<PageId> BufferManager::WaitAnyPrefetch() {
  if (in_flight_.empty()) {
    return Status::NotFound("no prefetch in flight");
  }
  [[maybe_unused]] const SimTime wait_begin = clock_->now();
  NAVPATH_ASSIGN_OR_RETURN(const SimulatedDisk::AsyncCompletion completion,
                           disk_->WaitForCompletion(scratch_.get()));
  NAVPATH_TRACE(tracer_, Span(TraceCategory::kBuffer, kTrackBuffer,
                              "prefetch_wait", wait_begin, clock_->now(),
                              {{"page", completion.page}}));
  const PageId id = completion.page;
  const bool claim = ClaimedByQuery(id);
  in_flight_.erase(id);
  if (!completion.io.ok() || !VerifyChecksum(id, scratch_.get())) {
    // The asynchronous read failed or delivered a bad image: degrade to a
    // synchronous re-read (with retries) so one lost completion does not
    // fail the whole plan.
    if (completion.io.ok()) ++metrics_->corruptions_detected;
    ++metrics_->fault_fallbacks;
    NAVPATH_RETURN_NOT_OK(ReadPageWithRetry(id, scratch_.get()));
  }
  if (!IsResident(id)) {
    NAVPATH_ASSIGN_OR_RETURN(const std::size_t idx, InstallFromScratch(id));
    frames_[idx].claimed = claim;
  }
  return id;
}

Result<PageId> BufferManager::PollAnyPrefetch() {
  if (in_flight_.empty()) return kInvalidPageId;
  const std::optional<SimulatedDisk::AsyncCompletion> completion =
      disk_->PollCompletion(scratch_.get());
  if (!completion.has_value()) return kInvalidPageId;
  const PageId id = completion->page;
  const bool claim = ClaimedByQuery(id);
  in_flight_.erase(id);
  if (!completion->io.ok() || !VerifyChecksum(id, scratch_.get())) {
    if (completion->io.ok()) ++metrics_->corruptions_detected;
    ++metrics_->fault_fallbacks;
    NAVPATH_RETURN_NOT_OK(ReadPageWithRetry(id, scratch_.get()));
  }
  if (!IsResident(id)) {
    NAVPATH_ASSIGN_OR_RETURN(const std::size_t idx, InstallFromScratch(id));
    frames_[idx].claimed = claim;
  }
  return id;
}

Status BufferManager::FlushAll() {
  for (Frame& f : frames_) {
    if (f.page_id != kInvalidPageId && f.dirty) {
      NAVPATH_RETURN_NOT_OK(WritePageWithRetry(f.page_id, f.data.get()));
      f.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferManager::InvalidateAll() {
  NAVPATH_RETURN_NOT_OK(FlushAll());
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.page_id == kInvalidPageId) continue;
    if (f.pin_count > 0) {
      return Status::InvalidArgument("cannot invalidate a pinned page");
    }
    Unmap(f.page_id);
    f.page_id = kInvalidPageId;
    f.claimed = false;
    free_frames_.push_back(i);
  }
  return Status::OK();
}

}  // namespace navpath
