// Unit tests for the XPath parser and the DOM oracle evaluator.
#include <gtest/gtest.h>

#include <string>

#include "xml/parser.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

TEST(XPathParserTest, SimpleAbsolutePath) {
  TagRegistry tags;
  auto path = ParsePath("/site/regions", &tags);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_TRUE(path->absolute);
  ASSERT_EQ(path->length(), 2u);
  // Document-node projection: /site tests the root element itself.
  EXPECT_EQ(path->steps[0].axis, Axis::kSelf);
  EXPECT_EQ(path->steps[0].test.name, "site");
  EXPECT_EQ(path->steps[1].axis, Axis::kChild);
  EXPECT_EQ(path->steps[1].test.name, "regions");
}

TEST(XPathParserTest, DoubleSlashNormalizesToDescendant) {
  TagRegistry tags;
  auto path = ParsePath("/site//item", &tags);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->length(), 2u);
  EXPECT_EQ(path->steps[1].axis, Axis::kDescendant);
  EXPECT_EQ(path->steps[1].test.name, "item");

  auto leading = ParsePath("//item", &tags);
  ASSERT_TRUE(leading.ok());
  ASSERT_EQ(leading->length(), 1u);
  // From the document node, // includes the root element itself.
  EXPECT_EQ(leading->steps[0].axis, Axis::kDescendantOrSelf);
}

TEST(XPathParserTest, ExplicitAxes) {
  TagRegistry tags;
  auto path = ParsePath(
      "/descendant-or-self::node()/parent::*/following-sibling::x", &tags);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->length(), 3u);
  EXPECT_EQ(path->steps[0].axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(path->steps[0].test.kind, NodeTest::Kind::kAnyNode);
  EXPECT_EQ(path->steps[1].axis, Axis::kParent);
  EXPECT_EQ(path->steps[1].test.kind, NodeTest::Kind::kWildcard);
  EXPECT_EQ(path->steps[2].axis, Axis::kFollowingSibling);
}

TEST(XPathParserTest, AttributeAxis) {
  TagRegistry tags;
  auto path = ParsePath("/site/regions//item/@id", &tags);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->length(), 4u);
  EXPECT_EQ(path->steps[3].axis, Axis::kAttribute);
  EXPECT_EQ(path->steps[3].test.name, "id");

  auto explicit_form = ParsePath("//item/attribute::id", &tags);
  ASSERT_TRUE(explicit_form.ok());
  EXPECT_EQ(explicit_form->steps[1].axis, Axis::kAttribute);

  auto wildcard = ParsePath("//item/@*", &tags);
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ(wildcard->steps[1].axis, Axis::kAttribute);
  EXPECT_EQ(wildcard->steps[1].test.kind, NodeTest::Kind::kWildcard);

  // '//@id' expands to descendant-or-self::node()/attribute::id.
  auto deep = ParsePath("//@id", &tags);
  ASSERT_TRUE(deep.ok());
  ASSERT_EQ(deep->length(), 2u);
  EXPECT_EQ(deep->steps[0].axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(deep->steps[1].axis, Axis::kAttribute);
}

TEST(OracleTest, AttributeAxis) {
  TagRegistry tags;
  auto tree = ParseXml(
      "<r><a id=\"1\" x=\"2\"/><b id=\"3\"><a/></b></r>", &tags);
  ASSERT_TRUE(tree.ok());
  auto path = ParsePath("//@id", &tags);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *path, tree->root()).size(), 2u);
  auto back = ParsePath("//a/@id/..", &tags);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *back, tree->root()).size(), 1u);
}

TEST(XPathParserTest, FollowingAndPrecedingRewrite) {
  TagRegistry tags;
  auto path = ParsePath("//a/following::b", &tags);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  // descendant-or-self::a / ancestor-or-self::node() /
  // following-sibling::node() / descendant-or-self::b
  ASSERT_EQ(path->length(), 4u);
  EXPECT_EQ(path->steps[1].axis, Axis::kAncestorOrSelf);
  EXPECT_EQ(path->steps[2].axis, Axis::kFollowingSibling);
  EXPECT_EQ(path->steps[3].axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(path->steps[3].test.name, "b");

  auto prec = ParsePath("//a/preceding::*", &tags);
  ASSERT_TRUE(prec.ok());
  EXPECT_EQ(prec->steps[2].axis, Axis::kPrecedingSibling);
}

TEST(OracleTest, FollowingAndPrecedingSemantics) {
  TagRegistry tags;
  //      r
  //    / | \  (document order: r, a, b, c, d, e, f)
  //   a  c  f
  //  /b  |d,e
  auto tree = ParseXml(
      "<r><a><b/></a><c><d/><e/></c><f/></r>", &tags);
  ASSERT_TRUE(tree.ok());

  // following of b: everything after b's subtree = c, d, e, f.
  auto following = ParsePath("//b/following::*", &tags);
  ASSERT_TRUE(following.ok());
  const auto f_result = OracleEvaluate(*tree, *following, tree->root());
  std::vector<std::string> f_names;
  for (const DomNodeId n : f_result) f_names.push_back(tree->TagName(n));
  EXPECT_EQ(f_names, (std::vector<std::string>{"c", "d", "e", "f"}));

  // preceding of d: nodes wholly before d, excluding ancestors = a, b.
  auto preceding = ParsePath("//d/preceding::*", &tags);
  ASSERT_TRUE(preceding.ok());
  const auto p_result = OracleEvaluate(*tree, *preceding, tree->root());
  std::vector<std::string> p_names;
  for (const DomNodeId n : p_result) p_names.push_back(tree->TagName(n));
  EXPECT_EQ(p_names, (std::vector<std::string>{"a", "b"}));
}

TEST(XPathParserTest, DotAndDotDot) {
  TagRegistry tags;
  auto path = ParsePath("a/../b/.", &tags);
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(path->absolute);
  ASSERT_EQ(path->length(), 4u);
  EXPECT_EQ(path->steps[1].axis, Axis::kParent);
  EXPECT_EQ(path->steps[3].axis, Axis::kSelf);
}

TEST(XPathParserTest, DoubleSlashBeforeExplicitAxisKeepsDosStep) {
  TagRegistry tags;
  auto path = ParsePath("/a//parent::b", &tags);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->length(), 3u);
  EXPECT_EQ(path->steps[1].axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(path->steps[2].axis, Axis::kParent);
}

TEST(XPathParserTest, CountQueries) {
  TagRegistry tags;
  auto query = ParseQuery(
      "count(/site//description)+count(/site//annotation)+"
      "count(/site//email)",
      &tags);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->mode, PathQuery::Mode::kCount);
  EXPECT_EQ(query->paths.size(), 3u);
}

TEST(XPathParserTest, NodeQueryMode) {
  TagRegistry tags;
  auto query = ParseQuery("/a/b", &tags);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->mode, PathQuery::Mode::kNodes);
  EXPECT_EQ(query->paths.size(), 1u);
}

TEST(XPathParserTest, RootOnlyPath) {
  TagRegistry tags;
  auto path = ParsePath("/", &tags);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->absolute);
  EXPECT_EQ(path->length(), 0u);
}

TEST(XPathParserTest, Errors) {
  TagRegistry tags;
  EXPECT_FALSE(ParsePath("", &tags).ok());
  EXPECT_FALSE(ParsePath("/a//", &tags).ok());
  EXPECT_FALSE(ParsePath("/a/!b", &tags).ok());
  EXPECT_FALSE(ParsePath("/bogus::a", &tags).ok());
  EXPECT_FALSE(ParseQuery("count(/a", &tags).ok());
  EXPECT_FALSE(ParseQuery("count(/a) + /b", &tags).ok());
}

/// `/a` with `depth` nested predicates: /a[a[a...]]].
std::string NestedPredicates(std::size_t depth) {
  std::string query = "/a";
  query.reserve(2 + 3 * depth);
  for (std::size_t i = 0; i < depth; ++i) query += "[a";
  query.append(depth, ']');
  return query;
}

TEST(XPathParserTest, AcceptsPredicatesAtTheDepthLimit) {
  TagRegistry tags;
  auto query = ParseQuery(NestedPredicates(kMaxPredicateDepth), &tags);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::size_t depth = 0;
  for (const LocationPath* path = &query->paths[0];
       !path->steps.back().predicates.empty();
       path = path->steps.back().predicates[0].path.get()) {
    ++depth;
  }
  EXPECT_EQ(depth, kMaxPredicateDepth);
}

TEST(XPathParserTest, RejectsPredicatesPastTheDepthLimit) {
  // One past the limit, and deep enough to overflow any stack if the
  // parser recursed all the way down.
  for (const std::size_t depth :
       {kMaxPredicateDepth + 1, std::size_t{1000000}}) {
    TagRegistry tags;
    EXPECT_TRUE(
        ParseQuery(NestedPredicates(depth), &tags).status().IsParseError())
        << depth;
    EXPECT_TRUE(
        ParsePath(NestedPredicates(depth), &tags).status().IsParseError())
        << depth;
  }
}

TEST(XPathParserTest, ToStringRoundTrip) {
  TagRegistry tags;
  auto path = ParsePath("/site//item", &tags);
  ASSERT_TRUE(path.ok());
  auto again = ParsePath(path->ToString(), &tags);
  ASSERT_TRUE(again.ok()) << path->ToString();
  EXPECT_EQ(again->ToString(), path->ToString());
}

TEST(OracleTest, EvaluatesPathsOnDom) {
  TagRegistry tags;
  auto tree = ParseXml(
      "<r><a><b/><c><b/></c></a><a><b/></a><d><b/></d></r>", &tags);
  ASSERT_TRUE(tree.ok());

  auto path = ParsePath("/r/a/b", &tags);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *path, tree->root()).size(), 2u);

  auto deep = ParsePath("//b", &tags);
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(OracleEvaluate(*tree, *deep, tree->root()).size(), 4u);

  auto wrong_root = ParsePath("/a/b", &tags);
  ASSERT_TRUE(wrong_root.ok());
  EXPECT_TRUE(OracleEvaluate(*tree, *wrong_root, tree->root()).empty());

  auto query = ParseQuery("count(/r/a/b)+count(/r/d/b)", &tags);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(OracleCount(*tree, *query, tree->root()), 3u);
}

TEST(OracleTest, ResultsAreDedupedAndSorted) {
  TagRegistry tags;
  // //c//b produces the inner b twice without dedup (via both c anchors).
  auto tree = ParseXml("<r><c><c><b/></c></c></r>", &tags);
  ASSERT_TRUE(tree.ok());
  auto path = ParsePath("//c//b", &tags);
  ASSERT_TRUE(path.ok());
  const auto result = OracleEvaluate(*tree, *path, tree->root());
  EXPECT_EQ(result.size(), 1u);
}

}  // namespace
}  // namespace navpath
