// Unit tests for the XML layer: tag registry, DOM, parser, serializer.
#include <gtest/gtest.h>

#include <string>

#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tag_registry.h"

namespace navpath {
namespace {

TEST(TagRegistryTest, InternIsIdempotent) {
  TagRegistry tags;
  const TagId a = tags.Intern("item");
  const TagId b = tags.Intern("item");
  const TagId c = tags.Intern("person");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(tags.Name(a), "item");
  EXPECT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags.Lookup("item"), a);
  EXPECT_FALSE(tags.Lookup("missing").has_value());
}

TEST(DomTest, BuildsLinkedStructure) {
  TagRegistry tags;
  DomTree tree(&tags);
  const DomNodeId root = tree.CreateRoot(tags.Intern("a"));
  const DomNodeId c1 = tree.AppendChild(root, tags.Intern("b"));
  const DomNodeId c2 = tree.AppendChild(root, tags.Intern("c"));
  EXPECT_EQ(tree.node(root).first_child, c1);
  EXPECT_EQ(tree.node(root).last_child, c2);
  EXPECT_EQ(tree.node(c1).next_sibling, c2);
  EXPECT_EQ(tree.node(c2).prev_sibling, c1);
  EXPECT_EQ(tree.node(c2).parent, root);
}

TEST(DomTest, OrderKeysArePreorder) {
  TagRegistry tags;
  DomTree tree(&tags);
  const TagId t = tags.Intern("x");
  const DomNodeId root = tree.CreateRoot(t);
  const DomNodeId a = tree.AppendChild(root, t);
  const DomNodeId aa = tree.AppendChild(a, t);
  const DomNodeId b = tree.AppendChild(root, t);
  tree.AssignOrderKeys();
  EXPECT_EQ(tree.node(root).order, 0u);
  EXPECT_EQ(tree.node(a).order, 1 * kOrderKeyGap);
  EXPECT_EQ(tree.node(aa).order, 2 * kOrderKeyGap);
  EXPECT_EQ(tree.node(b).order, 3 * kOrderKeyGap);
}

TEST(ParserTest, ParsesNestedElements) {
  TagRegistry tags;
  auto result = ParseXml("<a><b>hi</b><c/></a>", &tags);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DomTree& tree = *result;
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.TagName(tree.root()), "a");
  const DomNodeId b = tree.node(tree.root()).first_child;
  EXPECT_EQ(tree.TagName(b), "b");
  EXPECT_EQ(tree.node(b).text, "hi");
}

TEST(ParserTest, SkipsPrologAndCapturesAttributes) {
  TagRegistry tags;
  auto result = ParseXml(
      "<?xml version=\"1.0\"?><!-- c --><!DOCTYPE a>\n"
      "<a id=\"1\" name='x &amp; y'><!-- inner --><b attr=\"2\"/></a>",
      &tags);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->element_count(), 2u);
  EXPECT_EQ(result->attribute_count(), 3u);
  const DomTree& tree = *result;
  const DomNodeId id_attr = tree.node(tree.root()).first_attr;
  ASSERT_NE(id_attr, kNilDomNode);
  EXPECT_EQ(tree.TagName(id_attr), "id");
  EXPECT_EQ(tree.node(id_attr).text, "1");
  const DomNodeId name_attr = tree.node(id_attr).next_sibling;
  ASSERT_NE(name_attr, kNilDomNode);
  EXPECT_EQ(tree.node(name_attr).text, "x & y");
  EXPECT_EQ(tree.node(name_attr).kind, DomNodeKind::kAttribute);
}

TEST(ParserTest, DecodesEntities) {
  TagRegistry tags;
  auto result = ParseXml("<a>x &amp; y &lt;z&gt; &quot;q&quot;</a>", &tags);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->node(result->root()).text, "x & y <z> \"q\"");
}

TEST(ParserTest, ParsesCdata) {
  TagRegistry tags;
  auto result = ParseXml("<a><![CDATA[<raw>&]]></a>", &tags);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->node(result->root()).text, "<raw>&");
}

TEST(ParserTest, RejectsMismatchedTags) {
  TagRegistry tags;
  EXPECT_TRUE(ParseXml("<a><b></a></b>", &tags).status().IsParseError());
}

TEST(ParserTest, RejectsTrailingContent) {
  TagRegistry tags;
  EXPECT_TRUE(ParseXml("<a/><b/>", &tags).status().IsParseError());
}

TEST(ParserTest, RejectsUnterminated) {
  TagRegistry tags;
  EXPECT_TRUE(ParseXml("<a><b>", &tags).status().IsParseError());
}

/// `depth` elements, each the only child of the one before.
std::string NestedXml(std::size_t depth) {
  std::string xml;
  xml.reserve(7 * depth);
  for (std::size_t i = 0; i < depth; ++i) xml += "<a>";
  for (std::size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(ParserTest, AcceptsNestingAtTheDepthLimit) {
  TagRegistry tags;
  auto tree = ParseXml(NestedXml(kMaxXmlDepth), &tags);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->size(), kMaxXmlDepth);
}

TEST(ParserTest, RejectsNestingPastTheDepthLimit) {
  // One past the limit, and deep enough to overflow any stack if the
  // parser recursed all the way down.
  for (const std::size_t depth : {kMaxXmlDepth + 1, std::size_t{1000000}}) {
    TagRegistry tags;
    EXPECT_TRUE(ParseXml(NestedXml(depth), &tags).status().IsParseError())
        << depth;
  }
}

TEST(SerializerTest, RoundTrip) {
  TagRegistry tags;
  const std::string source = "<a>pre<b>hi</b><c/></a>";
  auto tree = ParseXml(source, &tags);
  ASSERT_TRUE(tree.ok());
  const std::string serialized = SerializeXml(*tree);
  // Re-parse the serialization: same structure and text.
  TagRegistry tags2;
  auto tree2 = ParseXml(serialized, &tags2);
  ASSERT_TRUE(tree2.ok());
  EXPECT_EQ(tree2->size(), tree->size());
  EXPECT_EQ(tree2->node(tree2->root()).text, "pre");
}

TEST(SerializerTest, EscapesSpecials) {
  TagRegistry tags;
  DomTree tree(&tags);
  const DomNodeId root = tree.CreateRoot(tags.Intern("a"));
  tree.AppendText(root, "x < & >");
  EXPECT_EQ(SerializeXml(tree), "<a>x &lt; &amp; &gt;</a>");
}

}  // namespace
}  // namespace navpath
