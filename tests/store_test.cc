// Integration tests for clustering, import, and the physical store:
// every policy/document combination must materialize into pages whose
// logical reading (cross-cluster walk) reproduces the DOM exactly.
#include <gtest/gtest.h>

#include <memory>

#include "store/tree_page.h"
#include "tests/test_util.h"
#include "xml/parser.h"

namespace navpath {
namespace {

DatabaseOptions SmallDbOptions() {
  DatabaseOptions options;
  options.page_size = 512;  // force many clusters even for small trees
  options.buffer_pages = 64;
  return options;
}

std::unique_ptr<ClusteringPolicy> MakePolicy(const std::string& name,
                                             std::size_t budget) {
  if (name == "subtree") {
    return std::make_unique<SubtreeClusteringPolicy>(budget);
  }
  if (name == "round-robin") {
    return std::make_unique<RoundRobinClusteringPolicy>(budget);
  }
  if (name == "random") {
    return std::make_unique<RandomClusteringPolicy>(budget, 99);
  }
  return std::make_unique<DocOrderClusteringPolicy>(budget);
}

TEST(ClusteringTest, SubtreeKeepsSmallTreesTogether) {
  TagRegistry tags;
  auto tree = ParseXml("<a><b><c/></b><d/></a>", &tags);
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(4096);
  const ClusterAssignment assignment = policy.Assign(*tree);
  for (const auto c : assignment) EXPECT_EQ(c, assignment[0]);
}

TEST(ClusteringTest, RoundRobinScatters) {
  TagRegistry tags;
  RandomTreeOptions opts;
  opts.node_count = 100;
  const DomTree tree = MakeRandomTree(opts, 1, &tags);
  RoundRobinClusteringPolicy policy(600);
  const ClusterAssignment assignment = policy.Assign(tree);
  std::set<std::uint32_t> clusters(assignment.begin(), assignment.end());
  EXPECT_GT(clusters.size(), 2u);
  // Adjacent nodes land in different clusters.
  EXPECT_NE(assignment[0], assignment[1]);
}

TEST(ClusteringTest, PoliciesAreDeterministic) {
  TagRegistry tags;
  RandomTreeOptions opts;
  const DomTree tree = MakeRandomTree(opts, 5, &tags);
  RandomClusteringPolicy p1(600, 7), p2(600, 7);
  EXPECT_EQ(p1.Assign(tree), p2.Assign(tree));
}

// --- Import + store fsck -------------------------------------------------

struct ImportCase {
  std::string policy;
  std::uint64_t tree_seed;
  std::size_t nodes;
};

class ImportRoundTrip : public ::testing::TestWithParam<ImportCase> {};

TEST_P(ImportRoundTrip, LogicalTreeSurvivesMaterialization) {
  const ImportCase& param = GetParam();
  Database db(SmallDbOptions());
  RandomTreeOptions opts;
  opts.node_count = param.nodes;
  const DomTree tree = MakeRandomTree(opts, param.tree_seed, db.tags());

  auto policy = MakePolicy(param.policy, 512 - 64);
  auto doc = db.Import(tree, policy.get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->core_records, tree.element_count());
  EXPECT_EQ(doc->attribute_records, tree.attribute_count());
  EXPECT_GE(doc->page_count(), 1u);

  // Validate every page's structural invariants.
  for (PageId p = doc->first_page; p <= doc->last_page; ++p) {
    auto guard = db.buffer()->Fix(p);
    ASSERT_TRUE(guard.ok());
    const TreePage page =
        TreePage::ReadOnly(guard->data(), db.options().page_size);
    ASSERT_TRUE(page.Validate().ok()) << "page " << p;
    // Border partner symmetry: target(target(x)) == x (Sec. 3.4).
    for (SlotId s = 0; s < page.slot_count(); ++s) {
      if (!page.IsLive(s) || !page.IsBorder(s)) continue;
      const NodeID partner = page.PartnerOf(s);
      auto partner_guard = db.buffer()->Fix(partner.page);
      ASSERT_TRUE(partner_guard.ok());
      const TreePage partner_page = TreePage::ReadOnly(
          partner_guard->data(), db.options().page_size);
      ASSERT_LT(partner.slot, partner_page.slot_count());
      ASSERT_TRUE(partner_page.IsBorder(partner.slot));
      EXPECT_NE(partner_page.KindOf(partner.slot), page.KindOf(s));
      EXPECT_EQ(partner_page.PartnerOf(partner.slot), (NodeID{p, s}));
    }
  }

  // Walking the paged store reproduces the DOM bijectively.
  auto mapping = MapOrderToNodeID(&db, *doc, tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndTrees, ImportRoundTrip,
    ::testing::Values(
        ImportCase{"subtree", 1, 50}, ImportCase{"subtree", 2, 400},
        ImportCase{"subtree", 3, 1500}, ImportCase{"doc-order", 4, 400},
        ImportCase{"doc-order", 5, 1500}, ImportCase{"round-robin", 6, 200},
        ImportCase{"round-robin", 7, 800}, ImportCase{"random", 8, 200},
        ImportCase{"random", 9, 800}, ImportCase{"random", 10, 1500}),
    [](const ::testing::TestParamInfo<ImportCase>& info) {
      std::string name = info.param.policy + "_" +
                         std::to_string(info.param.nodes) + "_s" +
                         std::to_string(info.param.tree_seed);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ImportTest, HugeFanOutForcesContinuations) {
  // One node with hundreds of foreign children cannot hold all its
  // down-borders in one page: continuation fragments must kick in.
  Database db(SmallDbOptions());
  DomTree tree(db.tags());
  const TagId root_tag = db.tags()->Intern("root");
  const TagId child_tag = db.tags()->Intern("c");
  const DomNodeId root = tree.CreateRoot(root_tag);
  for (int i = 0; i < 400; ++i) {
    const DomNodeId child = tree.AppendChild(root, child_tag);
    tree.AppendText(child, "some text payload here");
    tree.AppendChild(child, child_tag);
  }
  tree.AssignOrderKeys();

  // Scatter children away from the root.
  ClusterAssignment assignment(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    assignment[i] = i == root ? 0 : 1 + static_cast<std::uint32_t>(i % 37);
  }
  ExplicitClusteringPolicy policy(assignment);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_GT(doc->continuation_pairs, 0u);

  auto mapping = MapOrderToNodeID(&db, *doc, tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
}

TEST(ImportTest, SingleNodeDocument) {
  Database db(SmallDbOptions());
  DomTree tree(db.tags());
  tree.CreateRoot(db.tags()->Intern("only"));
  tree.AssignOrderKeys();
  SubtreeClusteringPolicy policy(400);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->page_count(), 1u);
  EXPECT_EQ(doc->border_pairs, 0u);
}

TEST(ImportTest, RejectsEmptyDocument) {
  Database db(SmallDbOptions());
  DomTree tree(db.tags());
  SubtreeClusteringPolicy policy(400);
  EXPECT_FALSE(db.Import(tree, &policy).ok());
}

TEST(ImportTest, TextCapTruncatesStoredText) {
  DatabaseOptions options = SmallDbOptions();
  options.import.text_cap = 8;
  Database db(options);
  DomTree tree(db.tags());
  const DomNodeId root = tree.CreateRoot(db.tags()->Intern("r"));
  tree.AppendText(root, "0123456789ABCDEF");
  tree.AssignOrderKeys();
  SubtreeClusteringPolicy policy(400);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto guard = db.buffer()->Fix(doc->root.page);
  ASSERT_TRUE(guard.ok());
  const TreePage page =
      TreePage::ReadOnly(guard->data(), options.page_size);
  EXPECT_EQ(page.TextOf(doc->root.slot), "01234567");
}

}  // namespace
}  // namespace navpath
