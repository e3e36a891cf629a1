// Tests for the asynchronous scheduler details: C-SCAN elevator order,
// bounded queue window, trace hook, timeline reset discipline, duplicate
// request merging, and elevator pool depth accounting.
#include <gtest/gtest.h>

#include <vector>

#include "benchlib/harness.h"
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

TEST(DiskSchedulingTest, DuplicateSubmissionsMergeIntoOneRequest) {
  Fixture f;
  ASSERT_TRUE(f.disk.SubmitRead(42).ok());
  ASSERT_TRUE(f.disk.SubmitRead(42).ok());  // merged, not queued twice
  ASSERT_TRUE(f.disk.SubmitRead(17).ok());
  EXPECT_EQ(f.disk.pending_requests(), 2u);
  EXPECT_EQ(f.metrics.requests_merged, 1u);
  // One disk service produces one completion for the merged pair.
  const std::vector<PageId> served = f.DrainAll();
  EXPECT_EQ(served.size(), 2u);
  EXPECT_EQ(f.metrics.disk_reads, 2u);
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

}  // namespace
}  // namespace navpath
