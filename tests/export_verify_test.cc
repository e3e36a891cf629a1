// Tests for document export from the paged store and the store fsck.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "store/export.h"
#include "store/scan_export.h"
#include "store/verify.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmark/generator.h"

namespace navpath {
namespace {

DatabaseOptions SmallDb() {
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 64;
  return options;
}

struct ExportCase {
  std::string policy;
  std::uint64_t seed;
  double fragmentation;
};

class ExportRoundTrip : public ::testing::TestWithParam<ExportCase> {};

TEST_P(ExportRoundTrip, StoreExportEqualsDomSerialization) {
  const ExportCase& param = GetParam();
  DatabaseOptions options = SmallDb();
  options.import.fragmentation = param.fragmentation;
  Database db(options);
  RandomTreeOptions tree_options;
  tree_options.node_count = 600;
  const DomTree tree = MakeRandomTree(tree_options, param.seed, db.tags());

  std::unique_ptr<ClusteringPolicy> policy;
  if (param.policy == "subtree") {
    policy = std::make_unique<SubtreeClusteringPolicy>(448);
  } else {
    policy = std::make_unique<RandomClusteringPolicy>(448, param.seed);
  }
  auto doc = db.Import(tree, policy.get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  auto exported = ExportDocument(&db, *doc);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  EXPECT_EQ(*exported, SerializeXml(tree));

  // The scan-based exporter must produce byte-identical output from one
  // sequential pass.
  auto scanned = ScanExportDocument(&db, *doc);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(*scanned, *exported);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndFragmentation, ExportRoundTrip,
    ::testing::Values(ExportCase{"subtree", 201, 0.0},
                      ExportCase{"subtree", 202, 0.5},
                      ExportCase{"random", 203, 0.0},
                      ExportCase{"random", 204, 0.5},
                      ExportCase{"random", 205, 1.0}),
    [](const ::testing::TestParamInfo<ExportCase>& info) {
      return info.param.policy + "_s" + std::to_string(info.param.seed);
    });

TEST(ExportTest, XmlRoundTripThroughStore) {
  Database db(SmallDb());
  // Character content precedes child elements in our DOM model (mixed
  // content is concatenated per element, Sec. 3.1 exclusion), so the
  // source here places text first and round-trips byte-identically.
  const std::string source =
      "<a>alpha<b>beta</b><c>gamma &amp; delta<d/></c></a>";
  auto tree = ParseXml(source, db.tags());
  ASSERT_TRUE(tree.ok());
  RoundRobinClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto exported = ExportDocument(&db, *doc);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, source);
}

TEST(ExportTest, SubtreeExport) {
  Database db(SmallDb());
  auto tree = ParseXml("<a><b><c>x</c></b><d/></a>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  // Find the <b> node via navigation.
  CrossClusterCursor cursor(&db);
  ASSERT_TRUE(cursor.Start(Axis::kChild, doc->root).ok());
  LogicalNode b;
  auto more = cursor.Next(&b);
  ASSERT_TRUE(more.ok() && *more);
  auto exported = ExportSubtree(&db, b.id);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, "<b><c>x</c></b>");
}

TEST(ExportTest, XMarkExportMatchesDom) {
  DatabaseOptions options;
  options.page_size = 2048;
  options.buffer_pages = 256;
  options.import.fragmentation = 0.4;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.002;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(1792);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto exported = ExportDocument(&db, *doc);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, SerializeXml(tree));

  // Scan export: same bytes, strictly sequential I/O.
  ASSERT_TRUE(db.ResetMeasurement().ok());
  auto scanned = ScanExportDocument(&db, *doc);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*scanned, *exported);
  EXPECT_EQ(db.metrics()->disk_reads, doc->page_count());
  EXPECT_EQ(db.metrics()->disk_seq_reads, doc->page_count() - 1);
}

TEST(VerifyTest, AcceptsHealthyStores) {
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 500;
  const DomTree tree = MakeRandomTree(tree_options, 321, db.tags());
  RandomClusteringPolicy policy(448, 5);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto report = VerifyStore(&db, *doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->core_records, tree.element_count());
  EXPECT_EQ(report->reachable_cores, tree.element_count());
  EXPECT_EQ(report->attribute_records, tree.attribute_count());
  EXPECT_EQ(report->pages, doc->page_count());
}

TEST(VerifyTest, DetectsBrokenPartnerPointer) {
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 300;
  const DomTree tree = MakeRandomTree(tree_options, 322, db.tags());
  RandomClusteringPolicy policy(448, 6);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  // Corrupt: find some border record and point its partner elsewhere.
  bool corrupted = false;
  for (PageId p = doc->first_page; p <= doc->last_page && !corrupted; ++p) {
    auto guard = db.buffer()->Fix(p);
    ASSERT_TRUE(guard.ok());
    TreePage page(guard->mutable_data(), db.options().page_size);
    for (SlotId s = 0; s < page.slot_count(); ++s) {
      if (page.IsBorder(s)) {
        NodeID partner = page.PartnerOf(s);
        partner.slot = static_cast<SlotId>(partner.slot + 1);
        page.SetPartner(s, partner);
        guard->MarkDirty();
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  ASSERT_TRUE(db.buffer()->FlushAll().ok());
  EXPECT_FALSE(VerifyStore(&db, *doc).ok());
}

TEST(VerifyTest, PartnerOutsideItsPageIsCorruptionNotARead) {
  // A border's partner lives on a later page, which VerifyStore has not
  // validated yet when it checks the pair; that page's directory entry
  // for the partner slot points past the page.
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 300;
  const DomTree tree = MakeRandomTree(tree_options, 323, db.tags());
  RandomClusteringPolicy policy(448, 7);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  const std::size_t page_size = db.options().page_size;
  NodeID target = kInvalidNodeID;
  for (PageId p = doc->first_page; p <= doc->last_page; ++p) {
    auto guard = db.buffer()->Fix(p);
    ASSERT_TRUE(guard.ok());
    const TreePage page = TreePage::ReadOnly(guard->data(), page_size);
    for (SlotId s = 0; s < page.slot_count(); ++s) {
      if (page.IsLive(s) && page.IsBorder(s) && page.PartnerOf(s).page > p) {
        target = page.PartnerOf(s);
        break;
      }
    }
    if (target.valid()) break;
  }
  ASSERT_TRUE(target.valid());
  {
    auto guard = db.buffer()->Fix(target.page);
    ASSERT_TRUE(guard.ok());
    const std::uint16_t past = static_cast<std::uint16_t>(page_size + 64);
    std::memcpy(guard->mutable_data() + TreePage::kHeaderBytes +
                    std::size_t{target.slot} * TreePage::kSlotEntryBytes,
                &past, sizeof(past));
    guard->MarkDirty();
  }
  ASSERT_TRUE(db.buffer()->FlushAll().ok());
  const auto report = VerifyStore(&db, *doc);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption()) << report.status().ToString();
  EXPECT_NE(report.status().ToString().find("partner is not a border"),
            std::string::npos)
      << report.status().ToString();
}

}  // namespace
}  // namespace navpath
