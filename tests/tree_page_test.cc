// Unit tests for the on-page record format.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "store/tree_page.h"

namespace navpath {
namespace {

constexpr std::size_t kPage = 1024;

struct PageFixture {
  std::vector<std::byte> bytes;
  TreePage page;

  PageFixture() : bytes(kPage), page(bytes.data(), kPage) {
    TreePage::Initialize(bytes.data(), kPage);
  }
};

TEST(TreePageTest, FreshPageIsEmpty) {
  PageFixture f;
  EXPECT_EQ(f.page.slot_count(), 0u);
  EXPECT_EQ(f.page.FreeBytes(), kPage - TreePage::kHeaderBytes);
}

TEST(TreePageTest, CoreRecordRoundTrip) {
  PageFixture f;
  auto slot = f.page.AddCoreRecord(17, 42, "hello");
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(f.page.KindOf(*slot), RecordKind::kCore);
  EXPECT_EQ(f.page.TagOf(*slot), 17u);
  EXPECT_EQ(f.page.OrderOf(*slot), 42u);
  EXPECT_EQ(f.page.TextOf(*slot), "hello");
  EXPECT_EQ(f.page.ParentOf(*slot), kInvalidSlot);
}

TEST(TreePageTest, BorderRecordRoundTrip) {
  PageFixture f;
  auto slot = f.page.AddBorderRecord(RecordKind::kBorderDown);
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(f.page.IsBorder(*slot));
  const NodeID partner{99, 3};
  f.page.SetPartner(*slot, partner);
  EXPECT_EQ(f.page.PartnerOf(*slot), partner);
  f.page.SetLastChild(*slot, 7);
  EXPECT_EQ(f.page.LastChildOf(*slot), 7u);
}

TEST(TreePageTest, LinkFields) {
  PageFixture f;
  auto a = f.page.AddCoreRecord(1, 0, "");
  auto b = f.page.AddCoreRecord(2, 1, "");
  ASSERT_TRUE(a.ok() && b.ok());
  f.page.SetFirstChild(*a, *b);
  f.page.SetParent(*b, *a);
  f.page.SetNextSibling(*b, kInvalidSlot);
  EXPECT_EQ(f.page.FirstChildOf(*a), *b);
  EXPECT_EQ(f.page.ParentOf(*b), *a);
}

TEST(TreePageTest, SpaceAccountingIsExact) {
  PageFixture f;
  const std::size_t before = f.page.FreeBytes();
  ASSERT_TRUE(f.page.AddCoreRecord(1, 0, "abcd").ok());
  EXPECT_EQ(f.page.FreeBytes(), before - TreePage::CoreRecordSpace(4));
  const std::size_t mid = f.page.FreeBytes();
  ASSERT_TRUE(f.page.AddBorderRecord(RecordKind::kBorderUp).ok());
  EXPECT_EQ(f.page.FreeBytes(), mid - TreePage::BorderRecordSpace());
}

TEST(TreePageTest, FillsUntilResourceExhausted) {
  PageFixture f;
  int added = 0;
  for (;;) {
    auto slot = f.page.AddCoreRecord(1, added, "0123456789");
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsResourceExhausted());
      break;
    }
    ++added;
  }
  const int expected = static_cast<int>(
      (kPage - TreePage::kHeaderBytes) / TreePage::CoreRecordSpace(10));
  EXPECT_EQ(added, expected);
  // Records and slot directory never overlap: every record readable.
  for (SlotId s = 0; s < f.page.slot_count(); ++s) {
    EXPECT_EQ(f.page.TextOf(s), "0123456789");
    EXPECT_EQ(f.page.OrderOf(s), static_cast<std::uint64_t>(s));
  }
}

TEST(TreePageTest, ValidateAcceptsConsistentPage) {
  PageFixture f;
  auto up = f.page.AddBorderRecord(RecordKind::kBorderUp);
  auto core = f.page.AddCoreRecord(1, 0, "x");
  ASSERT_TRUE(up.ok() && core.ok());
  f.page.SetPartner(*up, NodeID{1, 0});
  f.page.SetFirstChild(*up, *core);
  f.page.SetLastChild(*up, *core);
  f.page.SetParent(*core, *up);
  f.page.SetNextSibling(*core, *up);
  f.page.SetPrevSibling(*core, *up);
  EXPECT_TRUE(f.page.Validate().ok());
}

TEST(TreePageTest, ValidateRejectsDanglingLink) {
  PageFixture f;
  auto core = f.page.AddCoreRecord(1, 0, "x");
  ASSERT_TRUE(core.ok());
  f.page.SetFirstChild(*core, 55);  // out of range
  EXPECT_FALSE(f.page.Validate().ok());
}

TEST(TreePageTest, ValidateBoundsEveryRecordBeforeFollowingLinks) {
  // Slot 0 links to slot 1, whose directory entry points past the page:
  // checking slot 0's links must not read slot 1's record through it.
  PageFixture f;
  auto parent = f.page.AddCoreRecord(1, 0, "x");
  auto child = f.page.AddCoreRecord(2, 1, "y");
  ASSERT_TRUE(parent.ok() && child.ok());
  f.page.SetFirstChild(*parent, *child);
  f.page.SetParent(*child, *parent);
  ASSERT_TRUE(f.page.Validate().ok());
  const std::uint16_t past = kPage + 64;
  std::memcpy(f.bytes.data() + TreePage::kHeaderBytes +
                  std::size_t{*child} * TreePage::kSlotEntryBytes,
              &past, sizeof(past));
  const Status status = f.page.Validate();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(TreePageTest, ValidateRejectsBorderWithoutPartner) {
  PageFixture f;
  ASSERT_TRUE(f.page.AddBorderRecord(RecordKind::kBorderDown).ok());
  EXPECT_FALSE(f.page.Validate().ok());
}

}  // namespace
}  // namespace navpath
