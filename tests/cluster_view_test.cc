// White-box tests for AxisCursor's intra-cluster enumeration and the
// per-axis resume semantics at border records (the heart of Sec. 5.3.2's
// "continue a partially evaluated step inside the new cluster").
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "store/cluster_view.h"

namespace navpath {
namespace {

// Fragment layout built by the fixture (one page):
//
//   up(U) ─ chain ─► c1 ─ bd ─ c2 ─ (terminates at U)
//                    │
//                    g1 (child of c1)
//
// i.e. an up-border U whose children are c1, a down-border bd, and c2,
// as the materializer produces for a continuation or multi-child
// fragment; c1 has one local child g1.
struct PageFixture {
  std::vector<std::byte> bytes;
  SimClock clock;
  Metrics metrics;
  CpuCostModel costs;
  TreePage page;
  SlotId up, c1, bd, c2, g1;

  PageFixture() : bytes(512), page(bytes.data(), 512) {
    TreePage::Initialize(bytes.data(), 512);
    up = *page.AddBorderRecord(RecordKind::kBorderUp);
    c1 = *page.AddCoreRecord(10, 1, "");
    bd = *page.AddBorderRecord(RecordKind::kBorderDown);
    c2 = *page.AddCoreRecord(11, 5, "");
    g1 = *page.AddCoreRecord(12, 2, "");
    page.SetPartner(up, NodeID{7, 0});
    page.SetPartner(bd, NodeID{8, 0});

    page.SetFirstChild(up, c1);
    page.SetLastChild(up, c2);
    page.SetParent(c1, up);
    page.SetParent(bd, up);
    page.SetParent(c2, up);
    page.SetPrevSibling(c1, up);
    page.SetNextSibling(c1, bd);
    page.SetPrevSibling(bd, c1);
    page.SetNextSibling(bd, c2);
    page.SetPrevSibling(c2, bd);
    page.SetNextSibling(c2, up);

    page.SetFirstChild(c1, g1);
    page.SetParent(g1, c1);
  }

  ClusterView View() {
    return ClusterView(bytes.data(), 512, /*page_id=*/3, &clock, &costs,
                       &metrics);
  }

  std::vector<std::pair<SlotId, bool>> Collect(Axis axis, SlotId origin) {
    AxisCursor cursor(View(), axis, origin);
    std::vector<std::pair<SlotId, bool>> out;
    NavEntry entry;
    while (cursor.Next(&entry)) out.emplace_back(entry.slot, entry.crossing);
    return out;
  }
};

using Entry = std::pair<SlotId, bool>;

TEST(AxisCursorTest, ChildFromCore) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kChild, f.c1),
            (std::vector<Entry>{{f.g1, false}}));
  EXPECT_TRUE(f.Collect(Axis::kChild, f.c2).empty());
}

TEST(AxisCursorTest, ChildResumesFromUpBorder) {
  PageFixture f;
  // A child-step crossing arrived at U: its children are the
  // continuation, the down-border is a further crossing, and the chain
  // terminal (U itself) is not emitted.
  EXPECT_EQ(f.Collect(Axis::kChild, f.up),
            (std::vector<Entry>{{f.c1, false}, {f.bd, true}, {f.c2, false}}));
}

TEST(AxisCursorTest, ChildFromDownBorderIsEmpty) {
  PageFixture f;
  // Speculative seed combination that cannot occur as a real resume.
  EXPECT_TRUE(f.Collect(Axis::kChild, f.bd).empty());
}

TEST(AxisCursorTest, SelfOnlyFromCore) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kSelf, f.c1),
            (std::vector<Entry>{{f.c1, false}}));
  EXPECT_TRUE(f.Collect(Axis::kSelf, f.up).empty());
}

TEST(AxisCursorTest, DescendantFromCoreStaysBelow) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kDescendant, f.c1),
            (std::vector<Entry>{{f.g1, false}}));
}

TEST(AxisCursorTest, DescendantResumesFromUpBorder) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kDescendant, f.up),
            (std::vector<Entry>{{f.c1, false},
                                {f.g1, false},
                                {f.bd, true},
                                {f.c2, false}}));
  EXPECT_TRUE(f.Collect(Axis::kDescendant, f.bd).empty());
}

TEST(AxisCursorTest, DescendantOrSelfIncludesOriginOnlyForCores) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kDescendantOrSelf, f.c1),
            (std::vector<Entry>{{f.c1, false}, {f.g1, false}}));
  EXPECT_EQ(f.Collect(Axis::kDescendantOrSelf, f.up).size(), 4u);
}

TEST(AxisCursorTest, ParentCrossesAtFragmentRoot) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kParent, f.g1),
            (std::vector<Entry>{{f.c1, false}}));
  EXPECT_EQ(f.Collect(Axis::kParent, f.c1),
            (std::vector<Entry>{{f.up, true}}));
  // Resume (down-border origin): physical parent of the down-border.
  EXPECT_EQ(f.Collect(Axis::kParent, f.bd),
            (std::vector<Entry>{{f.up, true}}));
  EXPECT_TRUE(f.Collect(Axis::kParent, f.up).empty());
}

TEST(AxisCursorTest, AncestorWalksUpAndCrosses) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kAncestor, f.g1),
            (std::vector<Entry>{{f.c1, false}, {f.up, true}}));
  EXPECT_EQ(f.Collect(Axis::kAncestorOrSelf, f.g1),
            (std::vector<Entry>{{f.g1, false},
                                {f.c1, false},
                                {f.up, true}}));
}

TEST(AxisCursorTest, FollowingSiblingWalksChainAndCrossesAtEnds) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kFollowingSibling, f.c1),
            (std::vector<Entry>{{f.bd, true}, {f.c2, false}, {f.up, true}}));
  // Resume at the up-border (a sibling crossing arrived): children are
  // the chain continuation, terminal not emitted.
  EXPECT_EQ(f.Collect(Axis::kFollowingSibling, f.up),
            (std::vector<Entry>{{f.c1, false}, {f.bd, true}, {f.c2, false}}));
  // Resume at a down-border (prev-chain crossing arrived from the child
  // fragment): continue with the local next sibling.
  EXPECT_EQ(f.Collect(Axis::kFollowingSibling, f.bd),
            (std::vector<Entry>{{f.c2, false}, {f.up, true}}));
}

TEST(AxisCursorTest, PrecedingSiblingReversesChain) {
  PageFixture f;
  EXPECT_EQ(f.Collect(Axis::kPrecedingSibling, f.c2),
            (std::vector<Entry>{{f.bd, true}, {f.c1, false}, {f.up, true}}));
  // Resume at the up-border: children in reverse document order.
  EXPECT_EQ(f.Collect(Axis::kPrecedingSibling, f.up),
            (std::vector<Entry>{{f.c2, false}, {f.bd, true}, {f.c1, false}}));
  EXPECT_EQ(f.Collect(Axis::kPrecedingSibling, f.bd),
            (std::vector<Entry>{{f.c1, false}, {f.up, true}}));
  EXPECT_TRUE(f.Collect(Axis::kPrecedingSibling, f.g1).empty());
}

TEST(AxisCursorTest, ChargesNavigationCosts) {
  PageFixture f;
  const SimTime before = f.clock.now();
  f.Collect(Axis::kDescendant, f.up);
  EXPECT_GT(f.clock.now(), before);
  EXPECT_GT(f.metrics.intra_cluster_hops, 0u);
}

TEST(AxisCursorTest, NextChargesTheHopsToEachEntry) {
  PageFixture f;
  AxisCursor cursor(f.View(), Axis::kDescendant, f.up);
  NavEntry entry;
  // c1 and g1 are one descent each; bd takes g1's and c1's sibling links
  // and the move; c2 one sibling link and the move; the end one sibling
  // link back to U.
  const std::uint64_t hops[] = {1, 2, 5, 7};
  for (const std::uint64_t want : hops) {
    ASSERT_TRUE(cursor.Next(&entry));
    EXPECT_EQ(f.metrics.intra_cluster_hops, want) << "at slot " << entry.slot;
    EXPECT_EQ(f.clock.now(), want * f.costs.record_hop);
  }
  EXPECT_FALSE(cursor.Next(&entry));
  EXPECT_EQ(f.metrics.intra_cluster_hops, 8u);
  EXPECT_EQ(f.metrics.node_tests, 0u);
}

TEST(AxisCursorTest, ScanSkipsFailingRecordsAndChargesOnce) {
  PageFixture f;
  const auto charged = [&f](std::uint64_t hops, std::uint64_t tests) {
    EXPECT_EQ(f.metrics.intra_cluster_hops, hops);
    EXPECT_EQ(f.metrics.node_tests, tests);
    EXPECT_EQ(f.clock.now(),
              hops * f.costs.record_hop + tests * f.costs.node_test);
    EXPECT_EQ(f.clock.cpu_time(), f.clock.now());
  };
  AxisCursor cursor(f.View(), Axis::kDescendant, f.up);
  NavEntry entry;
  // c1 and g1 fail the test (tags 10 and 12); the crossing is returned
  // untested.
  ASSERT_TRUE(cursor.Scan(TagId{11}, &entry));
  EXPECT_EQ(entry.slot, f.bd);
  EXPECT_TRUE(entry.crossing);
  charged(5, 2);
  ASSERT_TRUE(cursor.Scan(TagId{11}, &entry));
  EXPECT_EQ(entry.slot, f.c2);
  EXPECT_FALSE(entry.crossing);
  charged(7, 3);
  EXPECT_FALSE(cursor.Scan(TagId{11}, &entry));
  charged(8, 3);

  // "Any" stops at every entry and tests each core record once.
  PageFixture g;
  AxisCursor any(g.View(), Axis::kChild, g.up);
  std::vector<Entry> got;
  while (any.Scan(std::nullopt, &entry)) {
    got.emplace_back(entry.slot, entry.crossing);
  }
  EXPECT_EQ(got, (std::vector<Entry>{
                     {g.c1, false}, {g.bd, true}, {g.c2, false}}));
  EXPECT_EQ(g.metrics.intra_cluster_hops, 3u);
  EXPECT_EQ(g.metrics.node_tests, 2u);
}

TEST(AxisCursorTest, RebindKeepsPosition) {
  PageFixture f;
  AxisCursor cursor(f.View(), Axis::kChild, f.up);
  NavEntry entry;
  ASSERT_TRUE(cursor.Next(&entry));
  EXPECT_EQ(entry.slot, f.c1);
  // Simulate the page moving to another frame: rebind to a fresh view.
  cursor.Rebind(f.View());
  ASSERT_TRUE(cursor.Next(&entry));
  EXPECT_EQ(entry.slot, f.bd);
  EXPECT_TRUE(entry.crossing);
}

}  // namespace
}  // namespace navpath
