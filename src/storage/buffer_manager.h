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
/// `data()` stays valid. Movable, not copyable. Writers take the bytes
/// through `mutable_data()`, which moves the page's content generation
/// (BufferManager::ContentGeneration) when it first hands them out and
/// again when the guard is released.
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
  const std::byte* data() const;
  /// The page bytes for writing. Until this guard is released, every
  /// cache derived from the page's bytes ignores what it holds for it.
  std::byte* mutable_data();

  /// Marks the page dirty so eviction writes it back.
  void MarkDirty();

  /// Releases the pin early.
  void Release();

 private:
  BufferManager* bm_ = nullptr;
  std::size_t frame_idx_ = 0;
  bool writable_ = false;  // mutable_data() was handed out
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

  /// Appends to `out`, newest first, every page whose install came after
  /// the installs() value `since` and that has stayed resident since that
  /// install. Costs O(installs since `since`): nothing when the count has
  /// not moved.
  void InstalledSince(std::uint64_t since, std::vector<PageId>* out) const;

  /// Entries in the install log behind InstalledSince (for tests: it
  /// never holds more than twice the pool's capacity).
  std::size_t install_log_size() const { return install_log_.size(); }

  /// True if any prefetch has been submitted and not yet consumed.
  bool HasPrefetchInFlight() const { return !in_flight_.empty(); }

  /// Number of in-flight prefetched pages `owner` registered interest in
  /// (workload scheduling policies pick queries by this).
  std::size_t PendingFor(std::uint32_t owner) const;

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

  // --- Content generations ----------------------------------------------
  //
  // Every page id has a content generation that moves whenever its bytes
  // may change: when a PageGuard hands out mutable access and when that
  // guard is released, on NewPage, AdoptPage and Discard (Discard drops a
  // dirty frame without write-back). A hit, a prefetch, an install from
  // disk, a clean or written-back eviction and const access leave it
  // alone. A host-side cache of something derived from a page's bytes
  // (the preorder navigation image) stays valid while the generation it
  // was built at is current, across evictions and re-reads.

  /// ContentStamp's value while a guard holding mutable access to the
  /// page is alive: no cached derivation of the page may be trusted then.
  static constexpr std::uint64_t kUnstableContent =
      std::numeric_limits<std::uint64_t>::max();

  /// The content generation of `id` (0 until its first event).
  std::uint64_t ContentGeneration(PageId id) const {
    return id < contents_.size() ? contents_[id].generation : 0;
  }

  /// ContentGeneration(id), or kUnstableContent while a guard that handed
  /// out mutable access to `id` is alive.
  std::uint64_t ContentStamp(PageId id) const {
    if (id >= contents_.size()) return 0;
    const PageContent& c = contents_[id];
    return c.writers == 0 ? c.generation : kUnstableContent;
  }

  /// Writes back all dirty pages (used after import).
  Status FlushAll();

  /// Drops every unpinned page (used to cold-start each measured query).
  Status InvalidateAll();

  // Internal accessors used by PageGuard.
  /// Drops one pin; `wrote` if the guard had handed out mutable access.
  void Unpin(std::size_t frame_idx, bool wrote);
  /// A guard on `frame_idx` hands out mutable access.
  void BeginWrite(std::size_t frame_idx);
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
    /// Neighbours in the recency list (kNoFrame at either end); linked
    /// only while the frame holds a page.
    std::uint32_t lru_prev = kNoFrame;
    std::uint32_t lru_next = kNoFrame;
    /// installs() right after this frame's page was installed.
    std::uint64_t installed_at = 0;
  };

  /// Content generation of one page id and the number of live guards
  /// that handed out mutable access to it.
  struct PageContent {
    std::uint64_t generation = 0;
    std::uint32_t writers = 0;
  };

  /// The page's entry in contents_, growing the table to reach it.
  PageContent& ContentOf(PageId id);
  void BumpGeneration(PageId id) { ++ContentOf(id).generation; }

  /// One install: the page and installs() right after it. The entry is
  /// live while the page has stayed resident since (same frame stamp).
  struct InstallRecord {
    PageId page;
    std::uint64_t seq;
  };

  /// Frame holding `id`, or kNoFrame when it is not resident (including
  /// ids the table has not grown to, and kInvalidPageId).
  std::uint32_t FrameOf(PageId id) const {
    return id < page_table_.size() ? page_table_[id] : kNoFrame;
  }

  /// Makes frame `idx` hold no page: drops its page-table entry and its
  /// place in the recency list (the frame is being reused or freed).
  void Unmap(std::size_t idx);

  /// Links frame `idx` at the most recently used end of the recency list.
  void LinkMostRecent(std::size_t idx);
  void UnlinkRecency(std::size_t idx);
  /// Records a use of resident frame `idx` for LRU replacement.
  void Touch(std::size_t idx) {
    if (idx == lru_tail_) return;
    UnlinkRecency(idx);
    LinkMostRecent(idx);
  }

  bool IsLive(const InstallRecord& record) const {
    const std::uint32_t idx = FrameOf(record.page);
    return idx != kNoFrame && frames_[idx].installed_at == record.seq;
  }

  /// Finds a frame to (re)use, evicting the LRU unpinned page if needed.
  /// Unclaimed frames are preferred victims (see Frame::claimed).
  Result<std::size_t> GetFreeFrame();

  /// Installs the image already placed in scratch_ (all page_size bytes
  /// of it) as page `id`: the chosen frame takes scratch_'s buffer and
  /// gives its own to scratch_ in exchange, so no page is copied.
  Result<std::size_t> InstallFromScratch(PageId id);

  /// The shared tail of WaitAnyPrefetch and PollAnyPrefetch: retires the
  /// in-flight entry of the completed page, replaces a failed or corrupt
  /// image (its payload is in scratch_) by a synchronous re-read, and
  /// installs the page, claimed if a concurrent query asked for it,
  /// unless it is resident already.
  Result<PageId> FinishPrefetch(const SimulatedDisk::AsyncCompletion& done);

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
  // Content generations by page id; ids past the end are at generation 0
  // with no writer. Grows on the first event of a page.
  std::vector<PageContent> contents_;
  // The recency list: every resident frame, least recently used at the
  // head. A fix, install or adopt moves its frame to the tail, so walking
  // from the head visits frames in the order of their last use (a
  // Prefetch claim is not a use).
  std::uint32_t lru_head_ = kNoFrame;
  std::uint32_t lru_tail_ = kNoFrame;
  // Every install in order. Dead entries (pages since evicted, discarded
  // or re-installed) are dropped whenever the log outgrows twice the
  // pool, so it stays O(capacity).
  std::vector<InstallRecord> install_log_;
  // In-flight prefetches, each with the owners interested in the page
  // (small vectors: a handful of concurrent queries at most).
  std::unordered_map<PageId, std::vector<std::uint32_t>> in_flight_;
  std::function<void(PageId)> unpin_listener_;
  std::uint64_t installs_ = 0;
  // Staging buffer for disk I/O; each install swaps it with the buffer of
  // the frame it fills.
  std::unique_ptr<std::byte[]> scratch_;
};

}  // namespace navpath

#endif  // NAVPATH_STORAGE_BUFFER_MANAGER_H_
