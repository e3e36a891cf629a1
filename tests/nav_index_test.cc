// Tests for the preorder navigation image (NavIndex): its layout on a
// hand-built page; its termination, and that of every axis's cursor, on
// malformed pages (cycles, links out of range or to dead slots, text past
// the page); and its cache's validity rules in a Database (kept across
// evictions, rebuilt after writes, never trusted while a writer holds the
// page).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "algebra/operator.h"
#include "common/random.h"
#include "store/cluster_view.h"
#include "store/database.h"
#include "tests/test_util.h"

namespace navpath {
namespace {

constexpr std::size_t kPage = 512;

// One fragment below a root core R:
//
//   R ─► A ─ B ─ C        A ─► D ─ E        B: a down-border
//
// Slots: R 0, A 1, B 2, C 3, D 4, E 5, then `extra` unlinked core
// records (slots 6...) that the malformed cases link in.
struct SmallPage {
  std::vector<std::byte> bytes = std::vector<std::byte>(kPage);
  TreePage page{bytes.data(), kPage};
  SlotId r, a, b, c, d, e;

  explicit SmallPage(int extra = 0) {
    TreePage::Initialize(bytes.data(), kPage);
    r = *page.AddCoreRecord(0, 10, "");
    a = *page.AddCoreRecord(1, 20, "");
    b = *page.AddBorderRecord(RecordKind::kBorderDown);
    c = *page.AddCoreRecord(2, 60, "");
    d = *page.AddCoreRecord(3, 30, "");
    e = *page.AddCoreRecord(1, 40, "");
    for (int i = 0; i < extra; ++i) {
      const SlotId x = *page.AddCoreRecord(2, 100 + i, "");
      page.SetParent(x, a);  // not in any chain
    }
    page.SetPartner(b, NodeID{9, 0});
    Chain(r, {a, b, c});
    Chain(a, {d, e});
  }

  void Chain(SlotId parent, const std::vector<SlotId>& children) {
    page.SetFirstChild(parent, children.front());
    for (std::size_t i = 0; i < children.size(); ++i) {
      page.SetParent(children[i], parent);
      page.SetPrevSibling(children[i],
                          i == 0 ? kInvalidSlot : children[i - 1]);
      page.SetNextSibling(children[i], i + 1 == children.size()
                                           ? kInvalidSlot
                                           : children[i + 1]);
    }
  }
};

TEST(NavIndexTest, LaysTheFragmentOutInPreorder) {
  SmallPage p;
  NavIndex index;
  index.Build(p.bytes.data(), kPage);
  ASSERT_EQ(index.size(), 6u);
  const NavIndex::Entry* e = index.entries();
  const SlotId order[] = {p.r, p.a, p.d, p.e, p.b, p.c};
  const std::uint16_t depth[] = {0, 1, 2, 2, 1, 1};
  const TagId key[] = {0, 1, 3, 1, NavIndex::kDownBorderKey, 2};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(e[i].slot, order[i]) << i;
    EXPECT_EQ(e[i].depth, depth[i]) << i;
    EXPECT_EQ(e[i].key, key[i]) << i;
    EXPECT_EQ(index.PositionOf(order[i]), i);
  }
  EXPECT_EQ(index.PositionOf(6), NavIndex::kNoPosition);
}

// Checks that `index` places each slot at most once, at a position whose
// entry names it, with depths that start each fragment at 0 and grow by at
// most one per entry.
void ExpectWellFormed(const NavIndex& index, std::size_t slot_count) {
  ASSERT_LE(index.size(), slot_count);
  std::vector<int> seen(slot_count, 0);
  for (std::size_t i = 0; i < index.size(); ++i) {
    const NavIndex::Entry& entry = index.entries()[i];
    ASSERT_LT(entry.slot, slot_count);
    EXPECT_EQ(++seen[entry.slot], 1) << "slot " << entry.slot;
    EXPECT_EQ(index.PositionOf(entry.slot), i);
    const unsigned limit = i == 0 ? 0 : index.entries()[i - 1].depth + 1u;
    EXPECT_LE(entry.depth, limit) << "position " << i;
  }
}

constexpr Axis kAllAxes[] = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kDescendant,
    Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowingSibling,
    Axis::kPrecedingSibling, Axis::kAttribute,
};

// Every enumeration of every axis from every live slot ends, through Next,
// through Scan for "any", and through Scan for a name no record has,
// within one call per slot plus one.
void ExpectEnumerationsEnd(const std::vector<std::byte>& bytes) {
  SimClock clock;
  Metrics metrics;
  CpuCostModel costs;
  const ClusterView view(bytes.data(), kPage, 3, &clock, &costs, &metrics);
  const TreePage page = TreePage::ReadOnly(bytes.data(), kPage);
  for (SlotId origin = 0; origin < view.slot_count(); ++origin) {
    if (!page.IsLive(origin)) continue;
    for (const Axis axis : kAllAxes) {
      for (int run = 0; run < 3; ++run) {
        const std::optional<TagId> tag =
            run == 2 ? std::optional<TagId>(0xABCDEF) : std::nullopt;
        AxisCursor cursor(view, axis, origin);
        NavEntry entry;
        std::size_t calls = 0;
        while (run == 0 ? cursor.Next(&entry) : cursor.Scan(tag, &entry)) {
          ASSERT_LE(++calls, view.slot_count() + 1u)
              << "origin " << origin << " axis " << AxisName(axis)
              << " run " << run;
        }
      }
    }
  }
}

TEST(NavIndexTest, MalformedLinksEndChainsAndEnumerations) {
  struct Case {
    const char* what;
    void (*mangle)(SmallPage*);
  };
  const Case cases[] = {
      {"child cycle", [](SmallPage* p) { p->page.SetFirstChild(p->d, p->a); }},
      {"self child", [](SmallPage* p) { p->page.SetFirstChild(p->e, p->e); }},
      {"sibling cycle",
       [](SmallPage* p) { p->page.SetNextSibling(p->c, p->a); }},
      {"sibling back to an ancestor",
       [](SmallPage* p) { p->page.SetNextSibling(p->e, p->r); }},
      {"link one past the slot count",
       [](SmallPage* p) {
         p->page.SetNextSibling(p->e, p->page.slot_count());
       }},
      {"link far out of range",
       [](SmallPage* p) { p->page.SetFirstChild(p->c, 0xFFFE); }},
      {"link to a dead slot",
       [](SmallPage* p) {
         p->page.SetFirstChild(p->c, 6);
         p->page.RemoveRecord(6);
       }},
      {"two roots share a chain",
       [](SmallPage* p) {
         p->page.SetParent(p->a, kInvalidSlot);
         p->page.SetFirstChild(6, p->a);
         p->page.SetParent(6, kInvalidSlot);
       }},
      {"sibling cycle past the origin",
       [](SmallPage* p) { p->page.SetNextSibling(p->c, p->b); }},
      {"reverse sibling cycle past the origin",
       [](SmallPage* p) { p->page.SetPrevSibling(p->a, p->b); }},
      {"parent cycle",
       [](SmallPage* p) { p->page.SetParent(p->a, p->d); }},
      {"attribute chain cycle",
       [](SmallPage* p) {
         const SlotId x = *p->page.AddAttributeRecord(4, 21, "v");
         const SlotId y = *p->page.AddAttributeRecord(5, 22, "w");
         p->page.SetParent(x, p->a);
         p->page.SetParent(y, p->a);
         p->page.SetFirstAttr(p->a, x);
         p->page.SetNextSibling(x, y);
         p->page.SetNextSibling(y, x);
       }},
      {"attribute chain into the tree",
       [](SmallPage* p) { p->page.SetFirstAttr(p->a, p->d); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    SmallPage p(/*extra=*/2);
    c.mangle(&p);
    NavIndex index;
    index.Build(p.bytes.data(), kPage);
    ExpectWellFormed(index, p.page.slot_count());
    ExpectEnumerationsEnd(p.bytes);
  }
}

TEST(NavIndexTest, RandomLinksAlwaysGiveAFiniteImage) {
  Random rng(42);
  for (int round = 0; round < 300; ++round) {
    SmallPage p(/*extra=*/4);
    const SlotId x = *p.page.AddAttributeRecord(4, 21, "v");
    p.page.SetParent(x, p.a);
    p.page.SetFirstAttr(p.a, x);
    const std::size_t n = p.page.slot_count();
    for (int k = 0; k < 4; ++k) {
      const SlotId s = static_cast<SlotId>(rng.NextBounded(n));
      const SlotId to = rng.NextBool(0.1)
                            ? kInvalidSlot
                            : static_cast<SlotId>(rng.NextBounded(n + 3));
      switch (rng.NextBounded(5)) {
        case 0:
          p.page.SetParent(s, to);
          break;
        case 1:
          p.page.SetFirstChild(s, to);
          break;
        case 2:
          p.page.SetPrevSibling(s, to);
          break;
        case 3:
          if (!p.page.IsBorder(s)) p.page.SetFirstAttr(s, to);
          break;
        default:
          p.page.SetNextSibling(s, to);
          break;
      }
    }
    NavIndex index;
    index.Build(p.bytes.data(), kPage);
    ExpectWellFormed(index, n);
    ExpectEnumerationsEnd(p.bytes);
  }
}

TEST(NavIndexTest, DirectoryAndRecordsOutsideThePageArePassedOver) {
  SmallPage p;
  // A record offset past the page end, and a slot count whose directory
  // would run past it.
  std::uint16_t off = kPage - 4;
  std::memcpy(p.bytes.data() + TreePage::kHeaderBytes +
                  p.c * TreePage::kSlotEntryBytes,
              &off, sizeof(off));
  NavIndex index;
  index.Build(p.bytes.data(), kPage);
  ExpectWellFormed(index, p.page.slot_count());
  EXPECT_EQ(index.PositionOf(p.c), NavIndex::kNoPosition);
  ExpectEnumerationsEnd(p.bytes);
  const std::uint16_t huge = 0xFFFE;
  std::memcpy(p.bytes.data(), &huge, sizeof(huge));
  index.Build(p.bytes.data(), kPage);
  ExpectWellFormed(index, huge);
}

TEST(NavIndexTest, TextPastThePageIsNotPlaced) {
  // C's text and A's attribute X's text each run one byte past the page.
  SmallPage p;
  const SlotId x = *p.page.AddAttributeRecord(4, 21, "v");
  p.page.SetParent(x, p.a);
  p.page.SetFirstAttr(p.a, x);
  for (const SlotId slot : {p.c, x}) {
    std::uint16_t off;
    std::memcpy(&off,
                p.bytes.data() + TreePage::kHeaderBytes +
                    slot * TreePage::kSlotEntryBytes,
                sizeof(off));
    const auto len =
        static_cast<std::uint16_t>(kPage - off - TreePage::kCoreRecordBase + 1);
    std::memcpy(p.bytes.data() + off + 24, &len, sizeof(len));
    TreePage::CheckedRecord rec;
    EXPECT_FALSE(p.page.ReadChecked(slot, &rec)) << "slot " << slot;
  }
  NavIndex index;
  index.Build(p.bytes.data(), kPage);
  ExpectWellFormed(index, p.page.slot_count());
  EXPECT_EQ(index.PositionOf(p.c), NavIndex::kNoPosition);
  EXPECT_NE(index.PositionOf(p.b), NavIndex::kNoPosition);
  // No cursor starts at or arrives at either record, so no caller reads
  // their text.
  SimClock clock;
  Metrics metrics;
  CpuCostModel costs;
  const ClusterView view(p.bytes.data(), kPage, 3, &clock, &costs, &metrics);
  NavEntry entry;
  EXPECT_FALSE(AxisCursor(view, Axis::kSelf, p.c).Next(&entry));
  EXPECT_FALSE(AxisCursor(view, Axis::kSelf, x).Next(&entry));
  EXPECT_FALSE(AxisCursor(view, Axis::kAttribute, p.a).Next(&entry));
  AxisCursor siblings(view, Axis::kFollowingSibling, p.a);
  ASSERT_TRUE(siblings.Next(&entry));
  EXPECT_EQ(entry.slot, p.b);
  EXPECT_FALSE(siblings.Next(&entry));
  ExpectEnumerationsEnd(p.bytes);
}

TEST(NavIndexTest, SeedsComeOnlyFromPlacedBorders) {
  // XScan's seed loop asks the image which slots hold border records. Add
  // an up-border (the root of a second fragment), a down-border no chain
  // reaches, and one whose directory entry points past the page.
  SmallPage p;
  const SlotId up = *p.page.AddBorderRecord(RecordKind::kBorderUp);
  p.page.AddBorderRecord(RecordKind::kBorderDown).status().AbortIfNotOk();
  const SlotId outside = *p.page.AddBorderRecord(RecordKind::kBorderDown);
  const std::uint16_t off = kPage;  // the first byte past the page
  std::memcpy(p.bytes.data() + TreePage::kHeaderBytes +
                  outside * TreePage::kSlotEntryBytes,
              &off, sizeof(off));
  Database db(DatabaseOptions{});
  const ClusterView view(p.bytes.data(), kPage, 3, db.clock(), &db.costs(),
                         db.metrics());
  SlotId slot = 0;
  int step = 0;
  PathInstance seed;
  std::vector<std::pair<SlotId, int>> seeds;
  while (NextClusterSeed(&db, view, 2, &slot, &step, &seed)) {
    EXPECT_EQ(seed.right.node.page, 3u);
    seeds.emplace_back(seed.right.node.slot, seed.right.step);
  }
  const std::vector<std::pair<SlotId, int>> want = {
      {p.b, 0}, {p.b, 1}, {up, 0}, {up, 1}};
  EXPECT_EQ(seeds, want);
  // One hop per slot passed over, placed or not.
  EXPECT_EQ(db.metrics()->intra_cluster_hops, p.page.slot_count());
  EXPECT_EQ(db.metrics()->speculative_instances, want.size());
}

// --- The cache in a Database ------------------------------------------------

struct CacheFixture {
  Database db;
  ImportedDocument doc;
  TagId t1 = 0;

  CacheFixture() : db(Options()) {
    RandomTreeOptions tree_options;
    tree_options.node_count = 150;
    const DomTree tree = MakeRandomTree(tree_options, 5, db.tags());
    t1 = *db.tags()->Lookup("t1");
    RandomClusteringPolicy policy(448, 6);
    doc = *db.Import(tree, &policy);
  }

  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.page_size = kPage;
    options.buffer_pages = 16;
    return options;
  }

  // Scans descendant::t1 from every live core and up-border of every page
  // and returns the slots found, page by page.
  std::vector<std::vector<SlotId>> ScanAll() {
    std::vector<std::vector<SlotId>> found;
    for (PageId page = doc.first_page; page <= doc.last_page; ++page) {
      found.push_back(ScanPage(page));
    }
    return found;
  }

  std::vector<SlotId> ScanPage(PageId page) {
    auto guard = db.buffer()->Fix(page);
    guard.status().AbortIfNotOk();
    return ScanView(db.MakeView(*guard),
                    TreePage::ReadOnly(guard->data(), kPage));
  }

  std::vector<SlotId> ScanView(const ClusterView& view,
                               const TreePage& bytes) {
    std::vector<SlotId> out;
    for (SlotId s = 0; s < bytes.slot_count(); ++s) {
      if (!bytes.IsLive(s) || bytes.KindOf(s) == RecordKind::kAttribute) {
        continue;
      }
      AxisCursor cursor(view, Axis::kDescendant, s);
      NavEntry entry;
      while (cursor.Scan(t1, &entry)) out.push_back(entry.slot);
      out.push_back(kInvalidSlot);
    }
    return out;
  }
};

TEST(NavIndexTest, ImagesSurviveEvictionAndFollowWrites) {
  CacheFixture f;
  ASSERT_GT(f.doc.page_count(), f.db.buffer()->capacity());
  const auto first = f.ScanAll();
  const std::uint64_t builds = f.db.nav_images()->builds();
  EXPECT_EQ(builds, f.doc.page_count());
  // Every page was evicted at least once since its image was built.
  ASSERT_TRUE(f.db.ResetMeasurement().ok());
  EXPECT_EQ(f.ScanAll(), first);
  EXPECT_EQ(f.db.nav_images()->builds(), builds);

  // A write to one page rebuilds that page's image, and only that one.
  {
    auto guard = f.db.buffer()->Fix(f.doc.root.page);
    ASSERT_TRUE(guard.ok());
    guard->mutable_data();
  }
  EXPECT_EQ(f.ScanAll(), first);
  EXPECT_EQ(f.db.nav_images()->builds(), builds + 1);
}

TEST(NavIndexTest, NoImageIsTrustedWhileAWriterHoldsThePage) {
  CacheFixture f;
  // A page with room for one more record, and a core record on it.
  PageId page = f.doc.first_page;
  SlotId parent = kInvalidSlot;
  for (; page <= f.doc.last_page && parent == kInvalidSlot; ++page) {
    auto guard = f.db.buffer()->Fix(page);
    ASSERT_TRUE(guard.ok());
    const TreePage bytes = TreePage::ReadOnly(guard->data(), kPage);
    if (bytes.FreeBytes() < TreePage::CoreRecordSpace(0)) continue;
    for (SlotId s = 0; s < bytes.slot_count(); ++s) {
      if (bytes.IsLive(s) && bytes.KindOf(s) == RecordKind::kCore) {
        parent = s;
        break;
      }
    }
  }
  ASSERT_NE(parent, kInvalidSlot);
  --page;
  auto guard = f.db.buffer()->Fix(page);
  ASSERT_TRUE(guard.ok());
  TreePage bytes(guard->mutable_data(), kPage);
  const ClusterView view = f.db.MakeView(*guard);
  const std::vector<SlotId> before = f.ScanView(view, bytes);
  // Give `parent` a new first child tagged t1 while the writer lives.
  auto added = bytes.AddCoreRecord(f.t1, 1, "");
  ASSERT_TRUE(added.ok());
  const SlotId old_first = bytes.FirstChildOf(parent);
  bytes.SetParent(*added, parent);
  bytes.SetNextSibling(*added, old_first);
  if (old_first != kInvalidSlot) bytes.SetPrevSibling(old_first, *added);
  bytes.SetFirstChild(parent, *added);
  AxisCursor cursor(view, Axis::kDescendant, parent);
  NavEntry entry;
  ASSERT_TRUE(cursor.Scan(f.t1, &entry));
  EXPECT_EQ(entry.slot, *added);
  EXPECT_NE(f.ScanView(view, bytes), before);
}

}  // namespace
}  // namespace navpath
