// Discrete-event simulated disk with synchronous and asynchronous reads.
//
// The paper's experiments depend on three physical access regimes:
//   1. random synchronous reads       (the Simple plan),
//   2. asynchronously scheduled reads (XSchedule; the drive may serve
//      pending requests in an order that minimises head movement), and
//   3. sequential scans               (XScan).
// This class reproduces all three against a deterministic simulated clock.
// Page data lives in main memory; only *latency* is simulated.
//
// Asynchronous requests are served shortest-seek-time-first (SSTF) among
// the requests that had been submitted by the time the drive becomes idle,
// which models the reordering freedom the paper attributes to OS schedulers
// and on-disk tagged command queueing (Sec. 3.7).
#ifndef NAVPATH_STORAGE_DISK_H_
#define NAVPATH_STORAGE_DISK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "observe/trace.h"
#include "storage/checksum.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"
#include "storage/page.h"

namespace navpath {

class SimulatedDisk {
 public:
  /// `clock` and `metrics` must outlive the disk.
  SimulatedDisk(const DiskModel& model, std::size_t page_size,
                SimClock* clock, Metrics* metrics);

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  std::size_t page_size() const { return page_size_; }
  PageId num_pages() const { return static_cast<PageId>(pages_.size()); }

  /// Extends the segment by one zeroed page and returns its id.
  PageId AllocatePage();

  /// Attaches (or detaches, with nullptr) a fault injector consulted on
  /// every read service, async completion, and write. Without one the
  /// disk never fails and simulated costs are exactly the fault-free ones.
  void SetFaultInjector(FaultInjector* injector) { faults_ = injector; }

  /// Synchronous read: blocks the simulation until the transfer completes,
  /// then copies the page image into `out` (page_size bytes). An injected
  /// transient fault charges the attempt's service time and returns
  /// IOError without delivering data.
  Status ReadSync(PageId id, std::byte* out);

  /// Synchronous write of `data` (page_size bytes). `crc` is the page
  /// trailer checksum to store out of band; when omitted the disk computes
  /// it itself (callers that cannot vouch for the payload end to end).
  Status WriteSync(PageId id, const std::byte* data,
                   std::optional<std::uint32_t> crc = std::nullopt);

  /// The out-of-band trailer checksum stored with page `id`. Reading it
  /// costs nothing: the trailer travels with the sector it protects.
  std::uint32_t PageCrc(PageId id) const {
    NAVPATH_CHECK(id < trailers_.size());
    return trailers_[id].crc32c;
  }

  // --- Asynchronous interface (Sec. 3.7) -------------------------------

  /// Queues an asynchronous read of `id` at the current simulated time.
  /// A read of a page that is already pending is *merged* into the queued
  /// request instead of occupying a second elevator slot: the pair costs
  /// one disk service and produces one completion (requests_merged counts
  /// the coalesced submissions). Concurrent queries interested in the same
  /// page therefore share a single physical read.
  Status SubmitRead(PageId id);

  /// Number of submitted reads whose completion has not been consumed.
  std::size_t pending_requests() const {
    return pending_.size() + completed_.size();
  }

  /// One finished asynchronous read. `io` is OK when the payload was
  /// delivered into the caller's buffer; an injected transient fault
  /// completes the request with IOError and no data (the page can be
  /// re-read synchronously).
  struct AsyncCompletion {
    PageId page = kInvalidPageId;
    Status io;
  };

  /// Blocks (advances the clock) until some queued read completes, then
  /// copies its data into `out` and returns the completion.
  /// Fails with NotFound if nothing is queued.
  Result<AsyncCompletion> WaitForCompletion(std::byte* out);

  /// Returns a read that has already completed at the current simulated
  /// time, or nullopt. Never advances the clock.
  std::optional<AsyncCompletion> PollCompletion(std::byte* out);

  /// Position of the head after the last access (for tests/inspection).
  PageId head_position() const { return head_; }

  /// Accumulated time this drive spent servicing requests — seek plus
  /// transfer plus injected fault latency — since construction or the
  /// last ResetTimeline(). With K drives on independent clocks,
  /// busy_time() over the measurement window is that drive's utilization.
  SimTime busy_time() const { return busy_time_; }

  // --- Persistence backdoor (no simulation cost) ------------------------

  /// Direct read-only access to a page image (for saving to a file).
  const std::byte* RawPage(PageId id) const {
    NAVPATH_CHECK(id < pages_.size());
    return pages_[id].get();
  }

  /// Appends a page image without charging time (for loading from a file).
  /// The trailer checksum is recomputed from the payload; persistence
  /// verifies the file's stored trailer against the payload before calling.
  PageId LoadRawPage(const std::byte* data) {
    const PageId id = AllocatePage();
    std::memcpy(pages_[id].get(), data, page_size_);
    trailers_[id].crc32c = Crc32c(data, page_size_);
    return id;
  }

  /// Records every page access (reads and writes, in service order) into
  /// `trace` until called again with nullptr. For experiments that show
  /// physical access orders (Example 1).
  void SetTrace(std::vector<PageId>* trace) { trace_ = trace; }

#if NAVPATH_OBSERVE_ENABLED
  /// Attaches (or detaches, with nullptr) a span tracer: every access is
  /// then drawn as seek + transfer spans on the disk track, and async
  /// submissions/queue waits on the elevator track. Tracing reads the
  /// simulated timeline but never charges it.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
#endif

  /// Re-anchors the drive's timeline after the simulated clock was reset
  /// (no request may be in flight). The head position is kept: the first
  /// access of a fresh measurement still pays a real seek.
  void ResetTimeline() {
    NAVPATH_CHECK(pending_.empty() && completed_.empty());
    drive_free_at_ = 0;
    busy_time_ = 0;
  }

 private:
  struct PendingRequest {
    PageId page;
    SimTime submit_time;
  };
  struct CompletedRequest {
    PageId page;
    SimTime complete_time;
    bool failed = false;   // injected transient fault: no data delivered
    bool corrupt = false;  // injected corruption: deliver flipped bits
    bool operator>(const CompletedRequest& other) const {
      return complete_time > other.complete_time;
    }
  };

  /// Serves exactly one pending request (SSTF among those submitted by the
  /// time the drive is idle) and moves it to the completed queue.
  void ServeOnePending();

  /// Copies a completed request's payload into `out` (unless its injected
  /// fault suppressed delivery) and builds the caller-facing completion.
  AsyncCompletion Deliver(const CompletedRequest& req, std::byte* out);

  SimTime ChargeAccess(PageId target);

  DiskModel model_;
  std::size_t page_size_;
  SimClock* clock_;
  Metrics* metrics_;
  FaultInjector* faults_ = nullptr;

  std::vector<std::unique_ptr<std::byte[]>> pages_;
  std::vector<PageTrailer> trailers_;  // out-of-band, parallel to pages_

  PageId head_ = kInvalidPageId;
  SimTime drive_free_at_ = 0;
  SimTime busy_time_ = 0;

  std::vector<PageId>* trace_ = nullptr;
#if NAVPATH_OBSERVE_ENABLED
  Tracer* tracer_ = nullptr;
#endif
  std::vector<PendingRequest> pending_;
  std::priority_queue<CompletedRequest, std::vector<CompletedRequest>,
                      std::greater<CompletedRequest>>
      completed_;
};

}  // namespace navpath

#endif  // NAVPATH_STORAGE_DISK_H_
