#include "xml/serializer.h"

namespace navpath {

void AppendEscapedXmlText(std::string_view text, std::string* out) {
  for (const char c : text) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      default:
        out->push_back(c);
    }
  }
}

void AppendEscapedXmlAttribute(std::string_view value, std::string* out) {
  for (const char c : value) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '"':
        out->append("&quot;");
        break;
      default:
        out->push_back(c);
    }
  }
}

namespace {

void SerializeNode(const DomTree& tree, DomNodeId id, std::string* out) {
  const DomNode& n = tree.node(id);
  const std::string& name = tree.TagName(id);
  out->push_back('<');
  out->append(name);
  for (DomNodeId a = n.first_attr; a != kNilDomNode;
       a = tree.node(a).next_sibling) {
    out->push_back(' ');
    out->append(tree.TagName(a));
    out->append("=\"");
    AppendEscapedXmlAttribute(tree.node(a).text, out);
    out->push_back('"');
  }
  if (n.first_child == kNilDomNode && n.text.empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  AppendEscapedXmlText(n.text, out);
  for (DomNodeId c = n.first_child; c != kNilDomNode;
       c = tree.node(c).next_sibling) {
    SerializeNode(tree, c, out);
  }
  out->append("</");
  out->append(name);
  out->push_back('>');
}

}  // namespace

std::string SerializeXml(const DomTree& tree) {
  std::string out;
  if (tree.root() != kNilDomNode) SerializeNode(tree, tree.root(), &out);
  return out;
}

}  // namespace navpath
