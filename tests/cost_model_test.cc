// Tests for document statistics and the cost-based plan choice.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/cost_model.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

constexpr const char* kQ15Path =
    "/site/closed_auctions/closed_auction/annotation/description/parlist/"
    "listitem/parlist/listitem/text/emph/keyword/bold";

struct StatsFixture {
  Database db;
  DomTree tree;
  ImportedDocument doc;
  DocumentStats stats;

  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.page_size = 512;
    return options;
  }

  /// `padding_tags` names are interned before the document's own tags.
  explicit StatsFixture(const char* xml, int padding_tags = 0)
      : db(Options()), tree(db.tags()) {
    for (int i = 0; i < padding_tags; ++i) {
      db.tags()->Intern("pad" + std::to_string(i));
    }
    auto parsed = ParseXml(xml, db.tags());
    parsed.status().AbortIfNotOk();
    tree = std::move(*parsed);
    SubtreeClusteringPolicy policy(448);
    doc = *db.Import(tree, &policy);
    stats = DocumentStats::Build(tree, doc, 512);
  }
};

TEST(DocumentStatsTest, CountsAreExact) {
  StatsFixture f("<r><a><b/><b/><c><b/></c></a><a><c/></a></r>");
  TagRegistry* tags = f.db.tags();
  const TagId r = *tags->Lookup("r");
  const TagId a = *tags->Lookup("a");
  const TagId b = *tags->Lookup("b");
  const TagId c = *tags->Lookup("c");

  EXPECT_EQ(f.stats.node_count(), 8u);
  EXPECT_EQ(f.stats.root_tag(), r);
  EXPECT_EQ(f.stats.CountOfTag(a), 2u);
  EXPECT_EQ(f.stats.CountOfTag(b), 3u);
  EXPECT_EQ(f.stats.ChildCount(r, a), 2u);
  EXPECT_EQ(f.stats.ChildCount(a, b), 2u);  // direct b-children of a's
  EXPECT_EQ(f.stats.ChildCount(c, b), 1u);
  EXPECT_EQ(f.stats.DescendantCount(r, b), 3u);
  EXPECT_EQ(f.stats.DescendantCount(a, b), 3u);
  EXPECT_EQ(f.stats.DescendantCount(a, c), 2u);
  EXPECT_EQ(f.stats.ChildCountAny(r), 2u);
  EXPECT_EQ(f.stats.DescendantCountAny(r), 7u);
}

TEST(DocumentStatsTest, EstimatesExactForDeterministicSteps) {
  StatsFixture f("<r><a><b/><b/><c><b/></c></a><a><c/></a></r>");
  // /r/a/b: from the single root, child estimates are exact expectations.
  auto path = ParsePath("/r/a/b", f.db.tags());
  ASSERT_TRUE(path.ok());
  const PathEstimate est = EstimatePath(f.stats, *path);
  const auto oracle = OracleEvaluate(f.tree, *path, f.tree.root());
  EXPECT_NEAR(est.result_cardinality, static_cast<double>(oracle.size()),
              1e-9);

  auto deep = ParsePath("//b", f.db.tags());
  ASSERT_TRUE(deep.ok());
  const PathEstimate deep_est = EstimatePath(f.stats, *deep);
  EXPECT_NEAR(deep_est.result_cardinality, 3.0, 1e-9);
}

TEST(DocumentStatsTest, AncestorEstimateUsesPairCounts) {
  StatsFixture f("<r><a><c><b/></c></a><a><b/></a></r>");
  auto path = ParsePath("//b/ancestor::a", f.db.tags());
  ASSERT_TRUE(path.ok());
  const PathEstimate est = EstimatePath(f.stats, *path);
  // Both b's have exactly one a-ancestor; distribution-level estimate
  // counts expected ancestors (2 in total, capped at count(a) = 2).
  EXPECT_NEAR(est.result_cardinality, 2.0, 1e-6);
}

TEST(DocumentStatsTest, EstimatesReachTagIdsPast4095) {
  // The document's tags get ids 4096 and up. An estimation universe that
  // probed ids 0..4095 only estimated 0 for each of these paths.
  StatsFixture f("<r><a/><a><b/></a></r>", 4096);
  ASSERT_GE(*f.db.tags()->Lookup("r"), 4096u);
  const std::pair<const char*, double> cases[] = {
      {"/r/a", 2.0}, {"//b", 1.0}, {"//b/parent::a", 1.0}};
  for (const auto& [text, actual] : cases) {
    auto path = ParsePath(text, f.db.tags());
    ASSERT_TRUE(path.ok()) << text;
    EXPECT_NEAR(EstimatePath(f.stats, *path).result_cardinality, actual,
                1e-9)
        << text;
  }
}

/// Brute-force statistics: every reachable DOM node counts once for its
/// tag, once for the pair with its parent, and, if it is an element, once
/// for the pair with each node on its parent chain.
class ReferenceStats {
 public:
  explicit ReferenceStats(const DomTree& tree)
      : root_tag_(tree.node(tree.root()).tag) {
    std::vector<DomNodeId> stack{tree.root()};
    while (!stack.empty()) {
      const DomNodeId v = stack.back();
      stack.pop_back();
      Count(tree, v);
      for (DomNodeId a = tree.node(v).first_attr; a != kNilDomNode;
           a = tree.node(a).next_sibling) {
        Count(tree, a);
      }
      for (DomNodeId c = tree.node(v).first_child; c != kNilDomNode;
           c = tree.node(c).next_sibling) {
        stack.push_back(c);
      }
    }
  }

  std::uint64_t node_count() const { return node_count_; }
  TagId root_tag() const { return root_tag_; }
  std::uint64_t CountOfTag(TagId t) const { return Get(tag_, t); }
  std::uint64_t AttributeCount(TagId a, TagId b) const {
    return Get(attr_, {a, b});
  }
  std::uint64_t AttributeCountAny(TagId a) const { return Get(attr_any_, a); }
  std::uint64_t ChildCount(TagId a, TagId b) const {
    return Get(child_, {a, b});
  }
  std::uint64_t ChildCountAny(TagId a) const { return Get(child_any_, a); }
  std::uint64_t DescendantCount(TagId a, TagId b) const {
    return Get(desc_, {a, b});
  }
  std::uint64_t DescendantCountAny(TagId a) const {
    return Get(desc_any_, a);
  }
  std::vector<TagId> tags() const {
    std::vector<TagId> tags;
    for (const auto& [t, n] : tag_) tags.push_back(t);
    return tags;
  }

 private:
  using Pair = std::pair<TagId, TagId>;

  template <typename K>
  static std::uint64_t Get(const std::map<K, std::uint64_t>& m, const K& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  }

  void Count(const DomTree& tree, DomNodeId v) {
    const DomNode& n = tree.node(v);
    ++node_count_;
    ++tag_[n.tag];
    if (n.parent == kNilDomNode) return;
    const TagId parent = tree.node(n.parent).tag;
    if (n.kind == DomNodeKind::kAttribute) {
      ++attr_[{parent, n.tag}];
      ++attr_any_[parent];
      return;
    }
    ++child_[{parent, n.tag}];
    ++child_any_[parent];
    for (DomNodeId u = n.parent; u != kNilDomNode; u = tree.node(u).parent) {
      ++desc_[{tree.node(u).tag, n.tag}];
      ++desc_any_[tree.node(u).tag];
    }
  }

  TagId root_tag_;
  std::uint64_t node_count_ = 0;
  std::map<TagId, std::uint64_t> tag_, attr_any_, child_any_, desc_any_;
  std::map<Pair, std::uint64_t> attr_, child_, desc_;
};

/// The statistics FromSummary derives from the import's summary, from an
/// Encode/Decode copy of it (what a loaded file holds) and Build's from
/// the tree must all equal the brute-force tally of `tree`.
void ExpectStatsMatchReference(Database* db, const DomTree& tree,
                               const ImportedDocument& doc) {
  ASSERT_NE(db->summary(), nullptr);
  std::string encoded;
  db->summary()->Encode(&encoded);
  auto decoded = PathSummary::Decode(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ReferenceStats reference(tree);
  const TagId tag_count = static_cast<TagId>(db->tags()->size());
  const std::pair<const char*, DocumentStats> derived[] = {
      {"summary", DocumentStats::FromSummary(*db->summary(), doc)},
      {"decoded summary", DocumentStats::FromSummary(**decoded, doc)},
      {"tree", DocumentStats::Build(tree, doc, db->options().page_size)}};
  for (const auto& [source, stats] : derived) {
    SCOPED_TRACE(source);
    EXPECT_EQ(StatsDifferences(stats, reference, tag_count), "");
    EXPECT_EQ(stats.tags(), reference.tags());
    EXPECT_EQ(stats.page_count(), doc.page_count());
    EXPECT_EQ(stats.border_records(), 2 * doc.border_pairs);
    EXPECT_EQ(stats.crossing_probability(),
              static_cast<double>(doc.border_pairs) /
                  static_cast<double>(reference.node_count() - 1));
  }
}

TEST(DocumentStatsTest, EveryDerivationMatchesABruteForceTallyOnRandomTrees) {
  for (const int alphabet : {1, 3, 8}) {
    for (const int fanout : {1, 2, 6}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "alphabet " << alphabet
                                        << " fanout " << fanout << " seed "
                                        << seed);
        Database db(StatsFixture::Options());
        RandomTreeOptions options;
        options.node_count = 150;
        options.tag_alphabet = alphabet;
        options.max_fanout = fanout;
        DomTree tree = MakeRandomTree(options, seed, db.tags());
        // An attribute named like an element: its count joins the
        // element's CountOfTag, but no child or descendant pair.
        const TagId t0 = *db.tags()->Lookup("t0");
        for (DomNodeId v = 0; v < tree.size(); v += 5) {
          if (tree.node(v).kind == DomNodeKind::kElement) {
            tree.AddAttribute(v, t0, "x");
          }
        }
        tree.AssignOrderKeys();
        SubtreeClusteringPolicy policy(448);
        auto doc = db.Import(tree, &policy);
        ASSERT_TRUE(doc.ok()) << doc.status().ToString();
        ExpectStatsMatchReference(&db, tree, *doc);
      }
    }
  }
}

TEST(DocumentStatsTest, DeepOneTagChainTalliesInLinearTime) {
  // Every node of an n-deep chain of one tag has all the nodes above it
  // as same-tag ancestors: n(n-1)/2 pairs. Visiting each ancestor of each
  // summary node took 2.4 s at this depth; the derivation carries the
  // ancestor tags with their multiplicities instead.
  TagRegistry tags;
  DomTree tree(&tags);
  const TagId d = tags.Intern("d");
  constexpr std::uint64_t kDepth = 20000;
  DomNodeId at = tree.CreateRoot(d);
  for (std::uint64_t i = 1; i < kDepth; ++i) at = tree.AppendChild(at, d);
  const DocumentStats stats =
      DocumentStats::Build(tree, ImportedDocument{}, 512);
  EXPECT_EQ(stats.CountOfTag(d), kDepth);
  EXPECT_EQ(stats.ChildCount(d, d), kDepth - 1);
  EXPECT_EQ(stats.DescendantCount(d, d), kDepth * (kDepth - 1) / 2);
  EXPECT_EQ(stats.DescendantCountAny(d), kDepth * (kDepth - 1) / 2);
}

TEST(DocumentStatsTest, EveryDerivationMatchesABruteForceTallyOnXMark) {
  DatabaseOptions options;
  options.page_size = 2048;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.02;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(1792);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  ExpectStatsMatchReference(&db, tree, *doc);
}

TEST(CostModelTest, EstimatedProgressClampsTinyCardinalities) {
  // Regression: the workload executor's remaining-cost estimate used to
  // skip the progress discount whenever the estimated cardinality was
  // below 1.0, so sub-unit paths (selective predicates round to 0.x
  // nodes) were costed as if no work had happened and shortest-remaining
  // ordering kept demoting nearly-finished jobs. The cardinality is
  // clamped to >= 1 before dividing instead.
  EXPECT_DOUBLE_EQ(EstimatedProgress(0, 0.25), 0.0);
  EXPECT_DOUBLE_EQ(EstimatedProgress(1, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(EstimatedProgress(1, 0.0), 1.0);

  // Ordinary cardinalities divide through; progress caps at 1.
  EXPECT_DOUBLE_EQ(EstimatedProgress(2, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(EstimatedProgress(4, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(EstimatedProgress(40, 4.0), 1.0);

  // Degenerate estimates (negative from numeric noise) clamp too.
  EXPECT_DOUBLE_EQ(EstimatedProgress(0, -3.0), 0.0);
  EXPECT_DOUBLE_EQ(EstimatedProgress(5, -3.0), 1.0);
}

TEST(CostModelTest, EstimateScalesWithSelectivity) {
  TagRegistry* tags;
  DatabaseOptions options;
  options.page_size = 2048;
  Database db(options);
  tags = db.tags();
  XMarkOptions xmark;
  xmark.scale = 0.02;
  const DomTree tree = GenerateXMark(xmark, tags);
  SubtreeClusteringPolicy policy(1792);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  const DocumentStats stats = DocumentStats::Build(tree, *doc, 2048);

  auto q7_path = ParsePath("/site//description", tags);
  auto q15_path = ParsePath(kQ15Path, tags);
  ASSERT_TRUE(q7_path.ok());
  ASSERT_TRUE(q15_path.ok());
  const PathEstimate low_sel = EstimatePath(stats, *q7_path);
  const PathEstimate high_sel = EstimatePath(stats, *q15_path);
  EXPECT_GT(low_sel.clusters_touched, 5 * high_sel.clusters_touched);

  const PlanCosts low_costs = EstimatePlanCosts(
      stats, *q7_path, db.options().disk_model, db.costs());
  const PlanCosts high_costs = EstimatePlanCosts(
      stats, *q15_path, db.options().disk_model, db.costs());
  // Crossover: scans attractive for low selectivity, not for high.
  EXPECT_LT(low_costs.xscan / low_costs.xschedule,
            high_costs.xscan / high_costs.xschedule);
}

TEST(CostModelTest, ChoosesNavigationForSelectiveQueries) {
  DatabaseOptions options;
  options.page_size = 2048;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.05;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(1792);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  const DocumentStats stats = DocumentStats::Build(tree, *doc, 2048);

  auto selective = ParseQuery(kQ15Path, db.tags());
  ASSERT_TRUE(selective.ok());
  EXPECT_NE(ChoosePlanKind(stats, *selective, db.options().disk_model,
                           db.costs()),
            PlanKind::kXScan);

  auto broad = ParseQuery(
      "count(/site//description)+count(/site//annotation)+"
      "count(/site//email)",
      db.tags());
  ASSERT_TRUE(broad.ok());
  EXPECT_EQ(ChoosePlanKind(stats, *broad, db.options().disk_model,
                           db.costs()),
            PlanKind::kXScan);
}

}  // namespace
}  // namespace navpath
