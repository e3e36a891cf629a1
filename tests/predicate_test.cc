// Tests for predicate support: parsing, oracle semantics, and physical
// evaluation (segmented plans around the paper's algebra).
#include <gtest/gtest.h>

#include <memory>

#include "compiler/executor.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

TEST(PredicateParserTest, ParsesExistenceAndValueForms) {
  TagRegistry tags;
  auto path = ParsePath("/site/people/person[@id=\"person0\"]/name", &tags);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->length(), 4u);
  ASSERT_EQ(path->steps[2].predicates.size(), 1u);
  const Predicate& pred = path->steps[2].predicates[0];
  EXPECT_TRUE(pred.has_value);
  EXPECT_EQ(pred.value, "person0");
  EXPECT_EQ(pred.path->steps[0].axis, Axis::kAttribute);

  auto exist = ParsePath("//item[mailbox/mail]", &tags);
  ASSERT_TRUE(exist.ok());
  ASSERT_EQ(exist->steps[0].predicates.size(), 1u);
  EXPECT_FALSE(exist->steps[0].predicates[0].has_value);
  EXPECT_EQ(exist->steps[0].predicates[0].path->length(), 2u);

  auto multi = ParsePath("//a[b][c]", &tags);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->steps[0].predicates.size(), 2u);

  auto nested = ParsePath("//a[b[c]]", &tags);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->steps[0]
                .predicates[0]
                .path->steps[0]
                .predicates.size(),
            1u);
}

TEST(PredicateParserTest, ToStringRoundTrips) {
  TagRegistry tags;
  const char* queries[] = {
      "/site/people/person[@id=\"person0\"]/name",
      "//a[b][c/d]",
      "//item[mailbox/mail]/@id",
  };
  for (const char* q : queries) {
    auto path = ParsePath(q, &tags);
    ASSERT_TRUE(path.ok()) << q;
    auto again = ParsePath(path->ToString(), &tags);
    ASSERT_TRUE(again.ok()) << path->ToString();
    EXPECT_EQ(again->ToString(), path->ToString());
  }
}

TEST(PredicateParserTest, Errors) {
  TagRegistry tags;
  EXPECT_FALSE(ParsePath("//a[/b]", &tags).ok());     // absolute inside
  EXPECT_FALSE(ParsePath("//a[b", &tags).ok());       // unterminated
  EXPECT_FALSE(ParsePath("//a[b=\"x]", &tags).ok());  // unterminated string
  EXPECT_FALSE(ParsePath("//a[]", &tags).ok());       // empty
}

TEST(PredicateOracleTest, FiltersBySubpathExistence) {
  TagRegistry tags;
  auto tree = ParseXml(
      "<r><a><b/><c>keep</c></a><a><c>drop</c></a><a><b/></a></r>", &tags);
  ASSERT_TRUE(tree.ok());

  auto with_b = ParsePath("/r/a[b]", &tags);
  ASSERT_TRUE(with_b.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *with_b, tree->root()).size(), 2u);

  auto chained = ParsePath("/r/a[b]/c", &tags);
  ASSERT_TRUE(chained.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *chained, tree->root()).size(), 1u);

  auto by_value = ParsePath("/r/a[c=\"drop\"]", &tags);
  ASSERT_TRUE(by_value.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *by_value, tree->root()).size(), 1u);

  auto no_match = ParsePath("/r/a[c=\"nothing\"]", &tags);
  ASSERT_TRUE(no_match.ok());
  EXPECT_TRUE(OracleEvaluate(*tree, *no_match, tree->root()).empty());
}

struct PredicateCase {
  std::uint64_t seed;
  std::string path;
};

class PredicatePlans : public ::testing::TestWithParam<PredicateCase> {};

TEST_P(PredicatePlans, AllPlansMatchOracle) {
  const PredicateCase& param = GetParam();
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 64;
  Database db(options);
  RandomTreeOptions tree_options;
  tree_options.node_count = 500;
  tree_options.tag_alphabet = 3;
  const DomTree tree = MakeRandomTree(tree_options, param.seed, db.tags());
  RandomClusteringPolicy policy(448, param.seed + 1);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto path = ParsePath(param.path, db.tags());
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  const auto expected = OracleEvaluate(tree, *path, tree.root());
  std::vector<std::uint64_t> expected_orders;
  for (const DomNodeId n : expected) {
    expected_orders.push_back(tree.node(n).order);
  }

  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    exec.collect_nodes = true;
    auto result = ExecutePath(&db, *doc, *path, exec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::uint64_t> got;
    for (const auto& n : result->nodes) got.push_back(n.order);
    ASSERT_EQ(got, expected_orders)
        << param.path << " with " << PlanKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PredicatePlans,
    ::testing::Values(PredicateCase{61, "//t0[t1]"},
                      PredicateCase{62, "//t0[t1]/t2"},
                      PredicateCase{63, "//t1[@a0]"},
                      PredicateCase{64, "//t0[t1/t2]"},
                      PredicateCase{65, "//t0[t1][t2]/t1"},
                      PredicateCase{66, "//t2[..]"},
                      PredicateCase{67, "//t0[t1[@a1]]"},
                      PredicateCase{68, "//t1[@a0=\"val\"]"},
                      // parent:: from sibling t1s reaches their t0 once
                      // per sibling: the step after a multi-node frontier
                      // must deduplicate.
                      PredicateCase{69, "//t0[t1/parent::t0/t2]"},
                      PredicateCase{70, "//t2[t0/parent::*[t1]]"}),
    [](const ::testing::TestParamInfo<PredicateCase>& info) {
      return "case_s" + std::to_string(info.param.seed);
    });

TEST(PredicateTest, XMarkPointQueryAcrossPlans) {
  // XMark Q1 in spirit: look up one person by id and return the name.
  DatabaseOptions options;
  options.page_size = 2048;
  options.buffer_pages = 128;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.01;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(1792);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto path = ParsePath("/site/people/person[@id=\"person42\"]/name",
                        db.tags());
  ASSERT_TRUE(path.ok());
  const auto expected = OracleEvaluate(tree, *path, tree.root());
  ASSERT_EQ(expected.size(), 1u);

  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    auto result = ExecutePath(&db, *doc, *path, exec);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, 1u) << PlanKindName(kind);
  }
}

}  // namespace
}  // namespace navpath
