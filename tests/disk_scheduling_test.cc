// Tests for the asynchronous scheduler details: C-SCAN elevator order,
// bounded queue window, trace hook, timeline reset discipline, elevator
// pool depth accounting, and a seeded differential run of the service
// order against a brute-force reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "storage/disk.h"

namespace navpath {
namespace {

constexpr std::size_t kPage = 512;

struct Fixture {
  SimClock clock;
  Metrics metrics;
  SimulatedDisk disk;

  explicit Fixture(DiskModel model = DiskModel())
      : disk(model, kPage, &clock, &metrics) {
    std::vector<std::byte> buf(kPage);
    for (int i = 0; i < 200; ++i) {
      const PageId id = disk.AllocatePage();
      disk.WriteSync(id, buf.data()).AbortIfNotOk();
    }
    clock.Reset();
    disk.ResetTimeline();
  }

  std::vector<PageId> DrainAll() {
    std::vector<std::byte> buf(kPage);
    std::vector<PageId> order;
    while (disk.pending_requests() > 0) {
      auto page = disk.WaitForCompletion(buf.data());
      page.status().AbortIfNotOk();
      order.push_back(page->page);
    }
    return order;
  }
};

TEST(DiskSchedulingTest, ElevatorServesAscendingSweep) {
  Fixture f;
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.ReadSync(50, buf.data()).ok());  // head at 50
  for (const PageId p : {80, 60, 70, 55, 90}) {
    ASSERT_TRUE(f.disk.SubmitRead(p).ok());
  }
  EXPECT_EQ(f.DrainAll(), (std::vector<PageId>{55, 60, 70, 80, 90}));
}

TEST(DiskSchedulingTest, ElevatorWrapsBelowHead) {
  Fixture f;
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.ReadSync(100, buf.data()).ok());
  for (const PageId p : {10, 120, 5, 110}) {
    ASSERT_TRUE(f.disk.SubmitRead(p).ok());
  }
  // Ascending from the head first, then wrap to the lowest.
  EXPECT_EQ(f.DrainAll(), (std::vector<PageId>{110, 120, 5, 10}));
}

TEST(DiskSchedulingTest, QueueWindowBoundsReordering) {
  DiskModel narrow;
  narrow.queue_window = 1;  // no reordering freedom at all
  Fixture f(narrow);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.ReadSync(50, buf.data()).ok());
  for (const PageId p : {80, 60, 70}) {
    ASSERT_TRUE(f.disk.SubmitRead(p).ok());
  }
  // Window 1 == FIFO: submission order.
  EXPECT_EQ(f.DrainAll(), (std::vector<PageId>{80, 60, 70}));
}

TEST(DiskSchedulingTest, WiderWindowReducesSeekDistance) {
  DiskModel narrow;
  narrow.queue_window = 1;
  DiskModel wide;
  wide.queue_window = 64;
  const std::vector<PageId> targets = {90, 10, 80, 20, 70, 30, 60, 40};

  Fixture f_narrow(narrow);
  for (const PageId p : targets) {
    ASSERT_TRUE(f_narrow.disk.SubmitRead(p).ok());
  }
  f_narrow.DrainAll();

  Fixture f_wide(wide);
  for (const PageId p : targets) {
    ASSERT_TRUE(f_wide.disk.SubmitRead(p).ok());
  }
  f_wide.DrainAll();

  EXPECT_LT(f_wide.metrics.disk_seek_pages,
            f_narrow.metrics.disk_seek_pages);
  EXPECT_LT(f_wide.clock.now(), f_narrow.clock.now());
}

TEST(DiskSchedulingTest, LateSubmissionsDoNotTimeTravel) {
  Fixture f;
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.SubmitRead(100).ok());
  // The drive starts serving page 100 immediately; a request submitted
  // much later cannot be serviced before it even though it is nearer.
  auto first = f.disk.WaitForCompletion(buf.data());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->page, 100u);
  ASSERT_TRUE(f.disk.SubmitRead(99).ok());
  auto second = f.disk.WaitForCompletion(buf.data());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->page, 99u);
}

TEST(DiskSchedulingTest, TraceRecordsServiceOrder) {
  Fixture f;
  std::vector<PageId> trace;
  f.disk.SetTrace(&trace);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.ReadSync(3, buf.data()).ok());
  ASSERT_TRUE(f.disk.SubmitRead(7).ok());
  ASSERT_TRUE(f.disk.SubmitRead(5).ok());
  f.DrainAll();
  f.disk.SetTrace(nullptr);
  EXPECT_EQ(trace, (std::vector<PageId>{3, 5, 7}));
  // After detaching, accesses are no longer recorded.
  ASSERT_TRUE(f.disk.ReadSync(9, buf.data()).ok());
  EXPECT_EQ(trace.size(), 3u);
}

TEST(DiskSchedulingTest, ElevatorDepthIsSampledPerServiceDecision) {
  Fixture f;
  for (const PageId p : {80, 60, 70, 55, 90}) {
    ASSERT_TRUE(f.disk.SubmitRead(p).ok());
  }
  f.DrainAll();
  // One sample per service decision; the first decision saw all five
  // pending requests, later ones progressively fewer.
  EXPECT_EQ(f.metrics.elevator_batches, 5u);
  EXPECT_EQ(f.metrics.elevator_depth_max, 5u);
  EXPECT_EQ(f.metrics.elevator_depth_sum, 5u + 4u + 3u + 2u + 1u);
  EXPECT_DOUBLE_EQ(f.metrics.MeanElevatorDepth(), 3.0);
}

TEST(DiskSchedulingTest, SoloQueryPlansReportNoMerges) {
  // A single query never has two owners interested in one page, so the
  // merge counter must stay zero for every plan kind (the workload layer
  // relies on this to attribute merges to genuine cross-query overlap).
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXScan, PlanKind::kXSchedule}) {
    auto result = (*fixture)->Run("/site/regions//item", PaperPlan(kind));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->metrics.requests_merged, 0u) << PlanKindName(kind);
  }
}

TEST(DiskSchedulingTest, SequentialForwardSkipRotatesInsteadOfSeeking) {
  DiskModel m;
  // Skipping 3 pages forward: rotate past (3-1 = 2 transfers) + transfer.
  EXPECT_EQ(m.AccessCost(10, 13), 3 * m.transfer_time);
  // Far forward: the seek is cheaper than rotating past thousands.
  EXPECT_LT(m.AccessCost(10, 5000),
            4990 * m.transfer_time);
  // Backward always seeks.
  EXPECT_GT(m.AccessCost(13, 10), m.seek_base);
}

// Brute-force reference for the drive's asynchronous queue: every decision
// rescans the whole queue for the earliest submission, the visible depth
// and the window's C-SCAN pick, with no assumption about queue order.
struct ReferenceDrive {
  struct Request {
    PageId page;
    SimTime submit;
  };
  ReferenceDrive(const DiskModel& m, PageId start_head)
      : model(m), head(start_head) {}

  DiskModel model;
  PageId head;
  SimTime free_at = 0;
  std::vector<Request> pending;
  std::optional<std::pair<PageId, SimTime>> completed;  // page, time
  std::uint64_t depth_sum = 0;
  std::uint64_t reorderings = 0;

  bool IsPending(PageId page) const {
    for (const Request& r : pending) {
      if (r.page == page) return true;
    }
    return false;
  }

  void Submit(PageId page, SimTime now) {
    pending.push_back(Request{page, now});
  }

  SimTime Access(PageId page, SimTime start) {
    free_at = std::max(free_at, start) + model.AccessCost(head, page);
    head = page;
    return free_at;
  }

  void ServeOne() {
    std::size_t earliest = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      if (pending[i].submit < pending[earliest].submit) earliest = i;
    }
    const SimTime t_start = std::max(free_at, pending[earliest].submit);
    std::size_t admitted = 0;
    std::size_t best = pending.size();
    std::size_t lowest = pending.size();
    const PageId from = head == kInvalidPageId ? 0 : head;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].submit > t_start) continue;
      ++depth_sum;
      if (admitted++ >= model.queue_window) continue;
      const PageId p = pending[i].page;
      if (lowest == pending.size() || p < pending[lowest].page) lowest = i;
      if (p >= from && (best == pending.size() || p < pending[best].page)) {
        best = i;
      }
    }
    if (best == pending.size()) best = lowest;
    if (best != earliest) ++reorderings;
    const PageId page = pending[best].page;
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    completed = {page, Access(page, t_start)};
  }

  /// WaitForCompletion: the page served and the clock afterwards.
  std::pair<PageId, SimTime> Wait(SimTime now) {
    if (!completed.has_value()) ServeOne();
    const auto done = *completed;
    completed.reset();
    return {done.first, std::max(now, done.second)};
  }

  /// PollCompletion at `now`: the page, or kInvalidPageId.
  PageId Poll(SimTime now) {
    for (;;) {
      if (completed.has_value()) {
        if (completed->second > now) return kInvalidPageId;
        const PageId page = completed->first;
        completed.reset();
        return page;
      }
      if (pending.empty()) return kInvalidPageId;
      SimTime earliest = pending.front().submit;
      for (const Request& r : pending) earliest = std::min(earliest, r.submit);
      if (std::max(free_at, earliest) > now) return kInvalidPageId;
      ServeOne();
    }
  }
};

TEST(DiskSchedulingTest, ServiceOrderMatchesFullRescanReference) {
  // Random submissions, CPU time, polls, waits and synchronous reads,
  // under two queue windows: every completion's page and time, and the
  // depth and reordering counters, must equal the brute-force reference's.
  // Like the buffer, the generator never submits a page that is already
  // pending.
  for (const std::size_t window : {std::size_t{3}, std::size_t{16}}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      DiskModel model;
      model.queue_window = window;
      Fixture f(model);
      ReferenceDrive ref(model, f.disk.head_position());
      std::vector<std::byte> buf(kPage);
      Random rng(seed);
      for (int step = 0; step < 2000; ++step) {
        const std::uint64_t op = rng.NextBounded(100);
        if (op < 45) {
          const PageId page = static_cast<PageId>(rng.NextBounded(200));
          if (ref.IsPending(page)) continue;
          ref.Submit(page, f.clock.now());
          ASSERT_TRUE(f.disk.SubmitRead(page).ok());
        } else if (op < 65) {
          f.clock.ChargeCpu(static_cast<SimTime>(rng.NextBounded(3000)) *
                            kSimMicrosecond);
        } else if (op < 83) {
          const PageId expected = ref.Poll(f.clock.now());
          const auto polled = f.disk.PollCompletion(buf.data());
          ASSERT_EQ(polled.has_value() ? polled->page : kInvalidPageId,
                    expected)
              << "step " << step;
        } else if (op < 97) {
          if (f.disk.pending_requests() == 0) continue;
          const auto [page, time] = ref.Wait(f.clock.now());
          const auto waited = f.disk.WaitForCompletion(buf.data());
          ASSERT_TRUE(waited.ok());
          ASSERT_EQ(waited->page, page) << "step " << step;
          ASSERT_EQ(f.clock.now(), time) << "step " << step;
        } else {
          const PageId page = static_cast<PageId>(rng.NextBounded(200));
          const SimTime done = ref.Access(page, f.clock.now());
          ASSERT_TRUE(f.disk.ReadSync(page, buf.data()).ok());
          ASSERT_EQ(f.clock.now(), done) << "step " << step;
        }
        ASSERT_EQ(f.disk.head_position(), ref.head) << "step " << step;
        ASSERT_EQ(f.metrics.elevator_depth_sum, ref.depth_sum);
        ASSERT_EQ(f.metrics.async_reorderings, ref.reorderings);
      }
    }
  }
}

}  // namespace
}  // namespace navpath
