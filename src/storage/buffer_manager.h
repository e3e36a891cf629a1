// Buffer manager: fixed-size page cache over the simulated disk.
//
// Supports the operations the paper's operators rely on:
//   * Fix/unfix with pin counting (PageGuard is the RAII handle),
//   * LRU replacement with write-back of dirty pages,
//   * asynchronous prefetch (XSchedule: submit many, consume any),
//   * swizzle accounting (every NodeID -> frame translation is charged).
#ifndef NAVPATH_STORAGE_BUFFER_MANAGER_H_
#define NAVPATH_STORAGE_BUFFER_MANAGER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/cpu_cost_model.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace navpath {

class BufferManager;

/// Bounded retry with exponential backoff in *simulated* time, applied by
/// the buffer manager to transient I/O failures (injected or real). A
/// failed attempt waits `initial_backoff * multiplier^attempt` before the
/// next try; after `max_attempts` the last error is surfaced — IOError for
/// persistent transient faults, Corruption for checksum mismatches that
/// no re-read fixes.
struct RetryPolicy {
  int max_attempts = 4;
  SimTime initial_backoff = 200 * kSimMicrosecond;
  double multiplier = 2.0;
};

/// RAII pin on a buffer frame. While alive, the page cannot be evicted and
/// `data()` stays valid. Movable, not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferManager* bm, std::size_t frame_idx);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return bm_ != nullptr; }
  PageId page_id() const;
  std::byte* data();
  const std::byte* data() const;

  /// Marks the page dirty so eviction writes it back.
  void MarkDirty();

  /// Releases the pin early.
  void Release();

 private:
  BufferManager* bm_ = nullptr;
  std::size_t frame_idx_ = 0;
};

class BufferManager {
 public:
  BufferManager(SimulatedDisk* disk, std::size_t capacity_pages,
                const CpuCostModel& costs, SimClock* clock, Metrics* metrics,
                const RetryPolicy& retry = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t pages_resident() const { return pages_resident_; }

  /// Fixes `id` in the buffer, reading it synchronously on a miss.
  Result<PageGuard> Fix(PageId id);

  /// Fix that charges swizzle cost on top of the probe: used when an
  /// operator translates a stored NodeID back into a main-memory pointer.
  Result<PageGuard> FixSwizzle(PageId id);

  /// Allocates a fresh zeroed page on disk and fixes it (used at import).
  Result<PageGuard> NewPage();

  // --- Version-aware frame identity (MVCC shadow pages) -----------------
  //
  // Two versions of one logical page coexist in the pool as two distinct
  // physical page ids; the txn layer owns the logical->physical mapping.
  // These hooks let it install a shadow image without a disk round-trip
  // and drop reclaimed versions without a write-back.

  /// Installs `content` (page_size bytes) as page `id`, pinned and dirty.
  /// If `id` is already resident — e.g. a stale prefetch of a recycled
  /// shadow id completed first — its frame is overwritten in place, so
  /// there is never more than one frame per physical id.
  Result<PageGuard> AdoptPage(PageId id, const std::byte* content);

  /// Drops `id`'s frame without write-back (reclaimed page versions are
  /// dead; their disk image no longer matters). No-op if not resident;
  /// InvalidArgument if pinned.
  Status Discard(PageId id);

  // --- Asynchronous prefetch (XSchedule's I/O interface) ----------------

  enum class PrefetchOutcome {
    kResident,   // already buffered; no I/O needed
    kSubmitted,  // async read queued now
    kInFlight,   // an earlier prefetch of this page is still pending
  };

  /// Submits an async read unless the page is resident or already in
  /// flight. Never blocks. `owner` identifies the requesting query in a
  /// multi-query workload (0 = standalone): a prefetch of a page another
  /// owner already has in flight registers interest on the existing
  /// request instead of double-submitting, and counts a request merge.
  /// Repeated prefetches by the same owner are neither merges nor
  /// resubmissions, so single-query plans report requests_merged == 0.
  Result<PrefetchOutcome> Prefetch(PageId id, std::uint32_t owner = 0);

  bool IsResident(PageId id) const { return FrameOf(id) != kNoFrame; }

  /// Number of pages installed into a frame so far: Fix misses, prefetch
  /// completions, NewPage and AdoptPage of a non-resident id. Only an
  /// install makes a page resident, so a caller that saw this value
  /// unchanged knows no page has become resident in between.
  std::uint64_t installs() const { return installs_; }

  /// True if any prefetch has been submitted and not yet consumed.
  bool HasPrefetchInFlight() const { return !in_flight_.empty(); }

  /// Number of in-flight prefetched pages `owner` registered interest in
  /// (workload scheduling policies pick queries by this).
  std::size_t PendingFor(std::uint32_t owner) const;

  /// True if any non-standalone owner (!= 0) has interest in the
  /// in-flight page `id` (such pages are eviction-protected after
  /// installation until first fixed).
  bool ClaimedByQuery(PageId id) const;

  /// Blocks until some prefetch completes, installs the page in a frame,
  /// and returns its id. The page is NOT pinned; callers Fix() it next
  /// (which will hit). A completion that failed or arrived corrupted is
  /// recovered by a synchronous re-read with retries; only an
  /// unrecoverable page surfaces an error (Corruption for permanently bad
  /// media, IOError if transient faults outlast the retry budget).
  Result<PageId> WaitAnyPrefetch();

  /// Non-blocking variant; returns kInvalidPageId if none completed yet.
  Result<PageId> PollAnyPrefetch();

#if NAVPATH_OBSERVE_ENABLED
  /// Attaches (or detaches, with nullptr) a span tracer: fix misses,
  /// evictions, and prefetch waits then appear on the buffer track.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
#endif

  /// Registers `fn` to be called with the page id whenever a frame's pin
  /// count drops to zero (pass {} to unregister). The MVCC layer uses
  /// this to drain retired page versions that were skipped while pinned,
  /// instead of leaking them until the next commit or snapshot release.
  /// The listener must not pin or unpin pages itself (Discard is fine).
  void SetUnpinListener(std::function<void(PageId)> fn) {
    unpin_listener_ = std::move(fn);
  }

  /// Writes back all dirty pages (used after import).
  Status FlushAll();

  /// Drops every unpinned page (used to cold-start each measured query).
  Status InvalidateAll();

  // Internal accessors used by PageGuard.
  void Unpin(std::size_t frame_idx);
  PageId FramePage(std::size_t frame_idx) const {
    return frames_[frame_idx].page_id;
  }
  std::byte* FrameData(std::size_t frame_idx) {
    return frames_[frame_idx].data.get();
  }
  void FrameMarkDirty(std::size_t frame_idx) {
    frames_[frame_idx].dirty = true;
  }

 private:
  static constexpr std::uint32_t kNoFrame =
      std::numeric_limits<std::uint32_t>::max();

  struct Frame {
    PageId page_id = kInvalidPageId;
    std::unique_ptr<std::byte[]> data;
    std::uint32_t pin_count = 0;
    bool dirty = false;
    /// Installed for a concurrent query (owner != 0) that has not fixed
    /// it yet. Claimed frames are evicted only when every unpinned frame
    /// is claimed; the first Fix consumes the claim. Standalone execution
    /// (owner 0) never claims, so its eviction order is untouched.
    bool claimed = false;
    std::uint64_t last_use = 0;  // LRU stamp
  };

  /// Frame holding `id`, or kNoFrame when it is not resident (including
  /// ids the table has not grown to, and kInvalidPageId).
  std::uint32_t FrameOf(PageId id) const {
    return id < page_table_.size() ? page_table_[id] : kNoFrame;
  }

  /// Drops `id`'s page-table entry (its frame is being reused or freed).
  void Unmap(PageId id) {
    NAVPATH_DCHECK(FrameOf(id) != kNoFrame);
    page_table_[id] = kNoFrame;
    --pages_resident_;
  }

  /// Finds a frame to (re)use, evicting the LRU unpinned page if needed.
  /// Unclaimed frames are preferred victims (see Frame::claimed).
  Result<std::size_t> GetFreeFrame();

  /// Installs disk data already placed in scratch_ as page `id`.
  Result<std::size_t> InstallFromScratch(PageId id);

  Result<std::size_t> FixInternal(PageId id, bool charge_swizzle);

  /// True if `payload` matches the trailer checksum stored with `id`.
  bool VerifyChecksum(PageId id, const std::byte* payload) const;

  /// Synchronous read of `id` into `out` with checksum verification and
  /// bounded retry/backoff for transient errors and transient corruption.
  Status ReadPageWithRetry(PageId id, std::byte* out);

  /// Write-back of `data` as page `id` (checksum computed here, end to
  /// end) with bounded retry/backoff for transient write errors.
  Status WritePageWithRetry(PageId id, const std::byte* data);

  SimulatedDisk* disk_;
  std::size_t capacity_;
  CpuCostModel costs_;
  SimClock* clock_;
  Metrics* metrics_;
  RetryPolicy retry_;
#if NAVPATH_OBSERVE_ENABLED
  Tracer* tracer_ = nullptr;
#endif

  std::vector<Frame> frames_;
  std::vector<std::size_t> free_frames_;
  // Page table: the frame index of each resident page, indexed by page
  // id, kNoFrame elsewhere. Page ids are dense (SimulatedDisk hands them
  // out as 0, 1, 2, ...), so the vector grows on install to the highest
  // id seen and stays no larger than the disk.
  std::vector<std::uint32_t> page_table_;
  std::size_t pages_resident_ = 0;
  // In-flight prefetches, each with the owners interested in the page
  // (small vectors: a handful of concurrent queries at most).
  std::unordered_map<PageId, std::vector<std::uint32_t>> in_flight_;
  std::function<void(PageId)> unpin_listener_;
  std::uint64_t use_counter_ = 0;
  std::uint64_t installs_ = 0;
  std::unique_ptr<std::byte[]> scratch_;  // staging buffer for disk I/O
};

}  // namespace navpath

#endif  // NAVPATH_STORAGE_BUFFER_MANAGER_H_
