// Tests for the path-summary synopsis: exact counts and pruning against
// the oracle, deterministic encoding, decode round-trips and corruption
// rejection, navigation-free count()/exists() answers, and the XScan
// sweep restriction.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "compiler/executor.h"
#include "store/path_summary.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

DatabaseOptions SmallDb() {
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 64;
  return options;
}

/// A database + the DOM it was imported from, so tests can compare the
/// summary's answers against the oracle's.
struct SummaryFixture {
  Database db;
  DomTree tree;
  ImportedDocument doc;

  explicit SummaryFixture(std::uint64_t seed, const char* clustering = "random")
      : db(SmallDb()), tree(db.tags()) {
    RandomTreeOptions tree_options;
    tree_options.node_count = 400;
    tree_options.tag_alphabet = 3;
    tree = MakeRandomTree(tree_options, seed, db.tags());
    const std::size_t budget = 448;
    if (std::string(clustering) == "subtree") {
      SubtreeClusteringPolicy policy(budget);
      doc = *db.Import(tree, &policy);
    } else {
      RandomClusteringPolicy policy(budget, 3);
      doc = *db.Import(tree, &policy);
    }
  }
};

// Paths inside the exactness domain over the t0..t2 / a0..a2 alphabet.
const char* const kSupportedPaths[] = {
    "/t0", "/t1", "/t2",
    "//t0", "//t1", "//t2",
    "/t0/t1", "/t2/t0", "//t0//t1", "//t1//t2//t0",
    "//t0/t1/t2", "/t2//t1",
    "//t0/@a0", "//t1/@a2", "/t2/t0/@a1",
};

TEST(PathSummaryTest, CountsMatchOracleAcrossSeedsAndClusterings) {
  for (const std::uint64_t seed : {11u, 29u, 73u}) {
    for (const char* clustering : {"random", "subtree"}) {
      SummaryFixture f(seed, clustering);
      const PathSummary* summary = f.db.summary();
      ASSERT_NE(summary, nullptr);
      for (const char* text : kSupportedPaths) {
        auto path = ParsePath(text, f.db.tags());
        ASSERT_TRUE(path.ok()) << text;
        ASSERT_TRUE(PathSummary::Supports(*path)) << text;
        const SummaryMatch match = summary->Match(*path);
        ASSERT_TRUE(match.applicable) << text;
        const auto expected =
            OracleEvaluate(f.tree, *path, f.tree.root()).size();
        EXPECT_EQ(match.result_count, expected)
            << text << " seed=" << seed << " clustering=" << clustering;
        EXPECT_EQ(match.empty, expected == 0) << text;
      }
    }
  }
}

TEST(PathSummaryTest, TotalInstancesCoverEveryNode) {
  SummaryFixture f(5);
  const PathSummary* summary = f.db.summary();
  ASSERT_NE(summary, nullptr);
  // Every element and attribute instance belongs to exactly one path.
  EXPECT_EQ(summary->total_instances(),
            f.tree.element_count() + f.tree.attribute_count());
  std::uint64_t by_node = 0;
  for (std::uint32_t i = 0; i < summary->size(); ++i) {
    by_node += summary->node(i).count;
    if (summary->node(i).parent != PathSummary::kNoParent) {
      EXPECT_LT(summary->node(i).parent, i) << "parent must precede child";
    }
  }
  EXPECT_EQ(by_node, summary->total_instances());
}

TEST(PathSummaryTest, OutsideDomainIsNotSupported) {
  TagRegistry tags;
  for (const char* text :
       {"t0", "t0/t1",               // relative start
        "//t0[@a0=\"v\"]",           // predicate
        "/t0/..", "//t1/parent::t0", // upward axis
        "//t0/following-sibling::t1"}) {
    auto path = ParsePath(text, &tags);
    if (!path.ok()) continue;  // dialect may reject some of these outright
    EXPECT_FALSE(PathSummary::Supports(*path)) << text;
  }
  SummaryFixture f(7);
  auto relative = ParsePath("t0/t1", f.db.tags());
  ASSERT_TRUE(relative.ok());
  EXPECT_FALSE(f.db.summary()->Match(*relative).applicable);
}

TEST(PathSummaryTest, EncodingIsDeterministic) {
  // Two independent databases over the same document: byte-identical
  // synopses, regardless of the physical layout differences introduced
  // by import order (same clustering => same layout here).
  auto encode = [](std::uint64_t seed) {
    SummaryFixture f(seed);
    std::string bytes;
    f.db.summary()->Encode(&bytes);
    return bytes;
  };
  const std::string first = encode(17);
  const std::string second = encode(17);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first, encode(18));  // different document, different synopsis
}

TEST(PathSummaryTest, EncodeDecodeRoundTrip) {
  SummaryFixture f(23);
  const PathSummary* summary = f.db.summary();
  std::string bytes;
  summary->Encode(&bytes);

  auto decoded = PathSummary::Decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ((*decoded)->size(), summary->size());
  EXPECT_EQ((*decoded)->total_instances(), summary->total_instances());
  for (std::uint32_t i = 0; i < summary->size(); ++i) {
    const PathSummary::Node& a = summary->node(i);
    const PathSummary::Node& b = (*decoded)->node(i);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.children, b.children);
    EXPECT_EQ(a.extents, b.extents);
  }
  // Re-encoding the decoded summary reproduces the bytes exactly.
  std::string again;
  (*decoded)->Encode(&again);
  EXPECT_EQ(bytes, again);
}

TEST(PathSummaryTest, DecodeRejectsCorruption) {
  SummaryFixture f(31);
  std::string bytes;
  f.db.summary()->Encode(&bytes);

  EXPECT_FALSE(PathSummary::Decode(bytes.data(), bytes.size() / 2).ok());
  EXPECT_FALSE(PathSummary::Decode(bytes.data(), 0).ok());
  std::string garbage(bytes.size(), '\x5a');
  EXPECT_FALSE(PathSummary::Decode(garbage.data(), garbage.size()).ok());
  // Counts larger than the bytes left could hold are rejected before
  // anything is reserved: the node count (offset 0) and the first node's
  // extent count (after the 12-byte header and 17 bytes of the node).
  for (const std::size_t offset : {std::size_t{0}, std::size_t{29}}) {
    std::string inflated = bytes;
    inflated.replace(offset, 4, 4, '\xff');
    auto decoded = PathSummary::Decode(inflated.data(), inflated.size());
    EXPECT_TRUE(decoded.status().IsCorruption()) << "offset " << offset;
  }
  // An extent may not end at kInvalidPageId, which is no page; the first
  // node's first extent sits after its extent count, at offset 33.
  ASSERT_GT(f.db.summary()->node(0).extents.size(), 0u);
  std::string past_end = bytes;
  past_end.replace(37, 4, 4, '\xff');  // its last page
  auto decoded = PathSummary::Decode(past_end.data(), past_end.size());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

// --- End-to-end: navigation-free answers and pruning ---------------------

TEST(PathSummaryTest, CountAndExistsAnswerWithoutClusterAccess) {
  SummaryFixture f(41);
  for (const char* text :
       {"count(//t0//t1)", "count(/t2/t0)+count(//t1/@a0)",
        "exists(//t2)", "exists(//t0//t1//t2)",
        "exists(//nosuchtag)", "count(//nosuchtag)"}) {
    auto query = ParseQuery(text, f.db.tags());
    ASSERT_TRUE(query.ok()) << text;
    ExecuteOptions exec;
    exec.plan.kind = PlanKind::kXSchedule;
    auto result = ExecuteQuery(&f.db, f.doc, *query, exec);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_EQ(result->count, OracleCount(f.tree, *query, f.tree.root()))
        << text;
    // The synopsis answered: no cluster was entered, no page read.
    EXPECT_EQ(result->metrics.clusters_visited, 0u) << text;
    EXPECT_EQ(result->metrics.disk_reads, 0u) << text;
  }
}

TEST(PathSummaryTest, SummaryOffMatchesSummaryFreeDatabase) {
  // plan.use_summary=false must reproduce, byte for byte, the behavior of
  // a database that never built a synopsis.
  auto run = [](bool build_summary) {
    DatabaseOptions options = SmallDb();
    options.import.build_summary = build_summary;
    Database db(options);
    RandomTreeOptions tree_options;
    tree_options.node_count = 400;
    tree_options.tag_alphabet = 3;
    const DomTree tree = MakeRandomTree(tree_options, 41, db.tags());
    RandomClusteringPolicy policy(448, 3);
    const ImportedDocument doc = *db.Import(tree, &policy);
    auto query = ParseQuery("count(//t0//t1)", db.tags());
    query.status().AbortIfNotOk();
    ExecuteOptions exec;
    exec.plan.kind = PlanKind::kXSchedule;
    exec.plan.use_summary = !build_summary;
    auto result = ExecuteQuery(&db, doc, *query, exec);
    result.status().AbortIfNotOk();
    return std::make_tuple(result->count, result->total_time,
                           result->cpu_time, result->metrics.disk_reads,
                           result->metrics.clusters_visited);
  };
  // Left: summary built but disabled. Right: no summary at all.
  EXPECT_EQ(run(true), run(false));
}

TEST(PathSummaryTest, ProvablyEmptyPathsSkipNavigation) {
  // XMark structural facts: regions' children are continents, never
  // items; people have no descendant keyword.
  Database db(SmallDb());
  XMarkOptions xmark;
  xmark.scale = 0.01;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(448);
  const ImportedDocument doc = *db.Import(tree, &policy);
  ASSERT_NE(db.summary(), nullptr);

  for (const char* text :
       {"count(/site/regions/item)", "count(/site/people//bidder)",
        "exists(/site/regions/keyword)"}) {
    auto query = ParseQuery(text, db.tags());
    ASSERT_TRUE(query.ok()) << text;
    ASSERT_EQ(OracleCount(tree, *query, tree.root()), 0u) << text;
    const SummaryMatch match = db.summary()->Match(query->paths[0]);
    ASSERT_TRUE(match.applicable) << text;
    EXPECT_TRUE(match.empty) << text;
    EXPECT_GE(match.empty_at, 0) << text;

    for (const PlanKind kind :
         {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
      ExecuteOptions exec;
      exec.plan.kind = kind;
      auto result = ExecuteQuery(&db, doc, *query, exec);
      ASSERT_TRUE(result.ok()) << text;
      EXPECT_EQ(result->count, 0u) << text;
      EXPECT_EQ(result->metrics.clusters_visited, 0u)
          << text << " " << PlanKindName(kind);
    }
  }
}

TEST(PathSummaryTest, XMarkCountsAreExactForPaperQueries) {
  Database db(SmallDb());
  XMarkOptions xmark;
  xmark.scale = 0.01;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(448);
  const ImportedDocument doc = *db.Import(tree, &policy);

  const char* queries[] = {
      kQ6Prime, kQ7,
      "count(/site/closed_auctions/closed_auction/annotation/description/"
      "parlist/listitem/parlist/listitem/text/emph/keyword/bold)",  // Q15
      "count(/site/regions//item)", "count(/site/people/person/email)",
      "count(/site//keyword)", "count(/site/open_auctions//bidder)",
      "exists(/site/regions//item)", "exists(/site/regions/item)",
  };
  for (const char* text : queries) {
    auto query = ParseQuery(text, db.tags());
    ASSERT_TRUE(query.ok()) << text;
    for (const LocationPath& path : query->paths) {
      ASSERT_TRUE(PathSummary::Supports(path)) << text;
    }
    ExecuteOptions exec;
    exec.plan.kind = PlanKind::kXSchedule;
    auto result = ExecuteQuery(&db, doc, *query, exec);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_EQ(result->count, OracleCount(tree, *query, tree.root())) << text;
    EXPECT_EQ(result->metrics.clusters_visited, 0u) << text;
  }
}

TEST(PathSummaryTest, XScanRestrictionNeverReadsMorePages) {
  // The restricted sweep visits a subset of the full sweep's pages and
  // returns the same node set (correctness across all clusterings is
  // covered by operators_test's PlanEquivalence suite).
  for (const char* clustering : {"random", "subtree"}) {
    for (const char* text : {"/t2/t0", "//t0//t1", "//t1//t2//t0"}) {
      auto run = [&](bool use_summary) {
        SummaryFixture f(53, clustering);
        auto path = ParsePath(text, f.db.tags());
        path.status().AbortIfNotOk();
        ExecuteOptions exec;
        exec.plan.kind = PlanKind::kXScan;
        exec.plan.use_summary = use_summary;
        auto result = ExecutePath(&f.db, f.doc, *path, exec);
        result.status().AbortIfNotOk();
        return std::make_pair(result->count, result->metrics.disk_reads);
      };
      const auto with = run(true);
      const auto without = run(false);
      EXPECT_EQ(with.first, without.first) << text << " " << clustering;
      EXPECT_LE(with.second, without.second) << text << " " << clustering;
    }
  }
}

// --- ExtentUnion ------------------------------------------------------------

/// The sort-based ExtentUnion that the coverage sweep replaced, kept as
/// the reference: concatenate the nodes' extents, sort by (first, last), and
/// fold overlapping or adjacent extents into runs.
std::vector<SummaryExtent> ReferenceExtentUnion(
    const PathSummary& summary, const std::vector<std::uint32_t>& nodes) {
  std::vector<SummaryExtent> all;
  for (const std::uint32_t s : nodes) {
    const std::vector<SummaryExtent>& extents = summary.node(s).extents;
    all.insert(all.end(), extents.begin(), extents.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SummaryExtent& a, const SummaryExtent& b) {
              return a.first != b.first ? a.first < b.first : a.last < b.last;
            });
  std::vector<SummaryExtent> merged;
  for (const SummaryExtent& e : all) {
    if (!merged.empty() && e.first <= merged.back().last + 1 &&
        merged.back().last != kInvalidPageId) {
      merged.back().last = std::max(merged.back().last, e.last);
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

/// Encodes a chain-shaped summary (node i's parent is i - 1, one instance
/// each) whose node i has `extents[i]`, in PathSummary's wire format.
std::string EncodeWithExtents(
    const std::vector<std::vector<SummaryExtent>>& extents) {
  std::string out;
  const auto u32 = [&out](std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto u64 = [&out](std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  u32(static_cast<std::uint32_t>(extents.size()));
  u64(extents.size());  // total instances
  for (std::size_t i = 0; i < extents.size(); ++i) {
    u32(static_cast<std::uint32_t>(i));  // tag
    out.push_back(static_cast<char>(DomNodeKind::kElement));
    u32(i == 0 ? PathSummary::kNoParent : static_cast<std::uint32_t>(i - 1));
    u64(1);  // count
    u32(static_cast<std::uint32_t>(extents[i].size()));
    for (const SummaryExtent& e : extents[i]) {
      u32(e.first);
      u32(e.last);
    }
  }
  return out;
}

/// A sorted, disjoint extent list as Decode accepts it (adjacent extents
/// allowed), over a small page range from `base` so that lists of
/// different nodes overlap, nest and touch, and runs cross 64-page words.
std::vector<SummaryExtent> RandomExtents(Random* rng, PageId base) {
  std::vector<SummaryExtent> extents;
  const std::uint64_t n = rng->NextBounded(7);
  std::uint64_t next = base + rng->NextBounded(24);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t first = next + rng->NextBounded(6);
    const std::uint64_t last =
        first + (rng->NextBool(0.1) ? rng->NextBounded(200)
                                    : rng->NextBounded(12));
    extents.push_back(SummaryExtent{static_cast<PageId>(first),
                                    static_cast<PageId>(last)});
    next = last + 1;
  }
  return extents;
}

std::string ExtentsToString(const std::vector<SummaryExtent>& extents) {
  std::string out;
  for (const SummaryExtent& e : extents) {
    out += '[';
    out += std::to_string(e.first);
    out += ',';
    out += std::to_string(e.last);
    out += ']';
  }
  return out;
}

TEST(PathSummaryTest, ExtentUnionMatchesSortReferenceOnRandomExtents) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    const std::size_t n = 1 + rng.NextBounded(12);
    std::vector<std::vector<SummaryExtent>> extents(n);
    // Every fourth seed places its pages just below kInvalidPageId, the
    // highest extents Decode accepts.
    const PageId base = seed % 4 == 0 ? kInvalidPageId - 2000 : 0;
    for (auto& list : extents) list = RandomExtents(&rng, base);
    const std::string bytes = EncodeWithExtents(extents);
    auto summary = PathSummary::Decode(bytes.data(), bytes.size());
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    for (int trial = 0; trial < 8; ++trial) {
      // Any node subset, in any order, with repeats.
      std::vector<std::uint32_t> nodes;
      const std::size_t picks = rng.NextBounded(2 * n + 1);
      for (std::size_t i = 0; i < picks; ++i) {
        nodes.push_back(static_cast<std::uint32_t>(rng.NextBounded(n)));
      }
      if (trial % 2 == 0) {
        std::sort(nodes.begin(), nodes.end());
        nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      }
      const auto expected = ReferenceExtentUnion(**summary, nodes);
      const auto actual = (*summary)->ExtentUnion(nodes);
      ASSERT_EQ(actual, expected)
          << "seed " << seed << " trial " << trial << ": got "
          << ExtentsToString(actual) << ", want "
          << ExtentsToString(expected);
      ASSERT_EQ((*summary)->ExtentUnionPages(nodes),
                PathSummary::ExtentPages(actual))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(PathSummaryTest, ExtentUnionMatchesSortReferenceOnXMark) {
  Database db(SmallDb());
  XMarkOptions xmark;
  xmark.scale = 0.01;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(448);
  ASSERT_TRUE(db.Import(tree, &policy).ok());
  const PathSummary& summary = *db.summary();
  const char* paths[] = {
      "/site/regions//item", "/site//description", "/site//annotation",
      "/site//email", "/site//keyword", "/site/people/person/address/city",
      "/site/closed_auctions/closed_auction/annotation/description/parlist/"
      "listitem/parlist/listitem/text/emph/keyword/bold",
  };
  for (const char* text : paths) {
    auto path = ParsePath(text, db.tags());
    ASSERT_TRUE(path.ok()) << text;
    const SummaryMatch match = summary.Match(*path);
    ASSERT_TRUE(match.applicable) << text;
    EXPECT_EQ(summary.ExtentUnion(match.touched),
              ReferenceExtentUnion(summary, match.touched))
        << text;
    EXPECT_EQ(summary.ExtentUnion(match.final_nodes),
              ReferenceExtentUnion(summary, match.final_nodes))
        << text;
    for (const auto* nodes : {&match.touched, &match.final_nodes}) {
      EXPECT_EQ(summary.ExtentUnionPages(*nodes),
                PathSummary::ExtentPages(summary.ExtentUnion(*nodes)))
          << text;
    }
  }
  std::vector<std::uint32_t> all(summary.size());
  for (std::uint32_t s = 0; s < summary.size(); ++s) all[s] = s;
  const auto everything = summary.ExtentUnion(all);
  EXPECT_EQ(everything, ReferenceExtentUnion(summary, all));
  EXPECT_EQ(summary.ExtentUnionPages(all),
            PathSummary::ExtentPages(everything));
  EXPECT_FALSE(everything.empty());
}

TEST(PathSummaryTest, UpdatesInvalidateTheSummary) {
  SummaryFixture f(61);
  ASSERT_NE(f.db.summary(), nullptr);
  f.db.InvalidateSummary();
  EXPECT_EQ(f.db.summary(), nullptr);
  // Queries still run (navigationally) without a synopsis.
  auto query = ParseQuery("count(//t0)", f.db.tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto result = ExecuteQuery(&f.db, f.doc, *query, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, OracleCount(f.tree, *query, f.tree.root()));
  EXPECT_GT(result->metrics.clusters_visited, 0u);
}

}  // namespace
}  // namespace navpath
