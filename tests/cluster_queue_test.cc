// Differential test of ClusterQueue, XSchedule's page-indexed queue,
// against the search-tree queue it replaced: a std::map from page to a
// deque of instances, plus a set of ready pages. Seeded random operation
// sequences push onto pages inside and past the grown range and onto the
// page being drained, pop fronts, ask for the lowest queued page, and set
// and clear ready flags; every answer must equal the model's.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "algebra/cluster_queue.h"
#include "common/random.h"

namespace navpath {
namespace {

struct Model {
  std::map<PageId, std::deque<PathInstance>> q;
  std::set<PageId> ready;
  std::size_t size = 0;

  bool empty(PageId page) const {
    const auto it = q.find(page);
    return it == q.end() || it->second.empty();
  }
  PageId LowestNonEmpty() const {
    for (const auto& [page, entries] : q) {
      if (!entries.empty()) return page;
    }
    return kInvalidPageId;
  }
};

void ExpectSameInstance(const PathInstance& got, const PathInstance& want) {
  EXPECT_EQ(got.left.node.Pack(), want.left.node.Pack());
  EXPECT_EQ(got.left.order, want.left.order);
  EXPECT_EQ(got.left.step, want.left.step);
  EXPECT_EQ(got.right.node.Pack(), want.right.node.Pack());
  EXPECT_EQ(got.right.order, want.right.order);
  EXPECT_EQ(got.right.border, want.right.border);
}

void RunDifferential(std::uint64_t seed) {
  Random rng(seed);
  ClusterQueue queue;
  Model model;
  PageId high = 8;                // pages below this are "in range"
  PageId draining = kInvalidPageId;  // the cluster being served
  std::uint64_t serial = 0;
  auto some_page = [&]() -> PageId {
    const std::uint64_t dice = rng.NextBounded(10);
    if (dice < 6) return static_cast<PageId>(rng.NextBounded(high));
    if (dice < 8 && draining != kInvalidPageId) return draining;
    // Past everything queued so far: the queue must grow to it.
    high += static_cast<PageId>(1 + rng.NextBounded(200));
    return high - 1;
  };
  for (int op = 0; op < 1000; ++op) {
    const std::uint64_t dice = rng.NextBounded(100);
    if (dice < 40) {
      const PageId page = some_page();
      const NodeID node{page, static_cast<SlotId>(rng.NextBounded(64))};
      PathInstance inst = PathInstance::Context(node, ++serial);
      inst.right.border = rng.NextBounded(2) == 1;
      inst.right.step = static_cast<std::int32_t>(rng.NextBounded(5));
      queue.Push(page, inst);
      model.q[page].push_back(inst);
      ++model.size;
    } else if (dice < 70) {
      // Serve the drained page, or enter the next one the way XSchedule
      // does: a ready page first, else the lowest queued page.
      if (draining == kInvalidPageId || model.empty(draining)) {
        draining = model.LowestNonEmpty();
        for (const PageId page : model.ready) {
          if (!model.empty(page)) {
            draining = page;
            break;
          }
        }
      }
      if (draining == kInvalidPageId) continue;
      ASSERT_FALSE(queue.empty(draining)) << "op " << op;
      const PathInstance got = queue.Pop(draining);
      ExpectSameInstance(got, model.q[draining].front());
      model.q[draining].pop_front();
      --model.size;
    } else if (dice < 80) {
      ASSERT_EQ(queue.LowestNonEmpty(), model.LowestNonEmpty()) << "op " << op;
    } else if (dice < 90) {
      const PageId page = some_page();
      ASSERT_EQ(queue.SetReady(page), model.ready.insert(page).second)
          << "op " << op << " page " << page;
    } else if (dice < 99) {
      const PageId page = some_page();
      queue.ClearReady(page);
      model.ready.erase(page);
    } else {
      queue.Clear();
      model = Model();
      draining = kInvalidPageId;
    }
    ASSERT_EQ(queue.size(), model.size) << "op " << op;
    for (int probe = 0; probe < 4; ++probe) {
      const PageId page = static_cast<PageId>(rng.NextBounded(high + 64));
      ASSERT_EQ(queue.empty(page), model.empty(page))
          << "op " << op << " page " << page;
      ASSERT_EQ(queue.ready(page), model.ready.count(page) > 0)
          << "op " << op << " page " << page;
    }
  }
  // Drain everything in the model's order: each page's FIFO, pages in
  // ascending order.
  for (PageId page = model.LowestNonEmpty(); page != kInvalidPageId;
       page = model.LowestNonEmpty()) {
    ASSERT_EQ(queue.LowestNonEmpty(), page);
    while (!model.q[page].empty()) {
      ExpectSameInstance(queue.Pop(page), model.q[page].front());
      model.q[page].pop_front();
    }
    EXPECT_TRUE(queue.empty(page));
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.LowestNonEmpty(), kInvalidPageId);
}

TEST(ClusterQueueTest, MatchesMapOfDequesModel) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    RunDifferential(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(ClusterQueueTest, AnswersForPagesItHasNotGrownTo) {
  ClusterQueue queue;
  EXPECT_TRUE(queue.empty(0));
  EXPECT_TRUE(queue.empty(1u << 20));
  EXPECT_FALSE(queue.ready(1u << 20));
  queue.ClearReady(1u << 20);  // no growth needed to clear
  EXPECT_EQ(queue.LowestNonEmpty(), kInvalidPageId);
  EXPECT_TRUE(queue.SetReady(70));
  EXPECT_FALSE(queue.SetReady(70));
  EXPECT_TRUE(queue.empty(70));  // ready but nothing queued
  EXPECT_EQ(queue.LowestNonEmpty(), kInvalidPageId);
  queue.Push(130, PathInstance::Context(NodeID{130, 1}, 1));
  queue.Push(64, PathInstance::Context(NodeID{64, 2}, 2));
  EXPECT_EQ(queue.LowestNonEmpty(), 64u);
  EXPECT_EQ(queue.Pop(64).right.order, 2u);
  EXPECT_EQ(queue.LowestNonEmpty(), 130u);
  queue.Clear();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.empty(130));
  EXPECT_FALSE(queue.ready(70));
}

}  // namespace
}  // namespace navpath
