#include "xml/parser.h"

#include <cctype>
#include <string>
#include <vector>

namespace navpath {
namespace {

class Parser {
 public:
  Parser(std::string_view input, TagRegistry* tags)
      : input_(input), tags_(tags), tree_(tags) {}

  Result<DomTree> Run() {
    SkipProlog();
    NAVPATH_RETURN_NOT_OK(ParseElement(kNilDomNode, 1));
    SkipMisc();
    if (pos_ != input_.size()) {
      return Fail("trailing content after document element");
    }
    tree_.AssignOrderKeys();
    return std::move(tree_);
  }

 private:
  Status Fail(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view s) {
    if (input_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  void SkipUntil(std::string_view terminator) {
    const std::size_t found = input_.find(terminator, pos_);
    pos_ = found == std::string_view::npos ? input_.size()
                                           : found + terminator.size();
  }

  void SkipProlog() {
    SkipWhitespace();
    for (;;) {
      if (Match("<?")) {
        SkipUntil("?>");
      } else if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<!DOCTYPE")) {
        SkipUntil(">");
      } else {
        break;
      }
      SkipWhitespace();
    }
  }

  void SkipMisc() {
    SkipWhitespace();
    for (;;) {
      if (Match("<!--")) {
        SkipUntil("-->");
      } else if (Match("<?")) {
        SkipUntil("?>");
      } else {
        break;
      }
      SkipWhitespace();
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  Result<std::string_view> ParseName() {
    const std::size_t start = pos_;
    if (AtEnd() || !IsNameStart(Peek())) {
      return Result<std::string_view>(Fail("expected name"));
    }
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  Status ParseAttributes(DomNodeId element) {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Fail("unexpected end inside tag");
      const char c = Peek();
      if (c == '>' || c == '/') return Status::OK();
      NAVPATH_ASSIGN_OR_RETURN(const std::string_view name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return Fail("expected '=' in attribute");
      SkipWhitespace();
      if (AtEnd()) return Fail("unexpected end in attribute value");
      const char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return Fail("expected quoted attribute value");
      }
      ++pos_;
      const std::size_t end = input_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Fail("unterminated attribute value");
      }
      std::string value;
      DecodeTextInto(input_.substr(pos_, end - pos_), &value);
      tree_.AddAttribute(element, tags_->Intern(name), value);
      pos_ = end + 1;
    }
  }

  void DecodeTextInto(std::string_view raw, std::string* out) {
    std::size_t i = 0;
    while (i < raw.size()) {
      if (raw[i] != '&') {
        out->push_back(raw[i++]);
        continue;
      }
      const std::string_view rest = raw.substr(i);
      if (rest.starts_with("&amp;")) {
        out->push_back('&');
        i += 5;
      } else if (rest.starts_with("&lt;")) {
        out->push_back('<');
        i += 4;
      } else if (rest.starts_with("&gt;")) {
        out->push_back('>');
        i += 4;
      } else if (rest.starts_with("&quot;")) {
        out->push_back('"');
        i += 6;
      } else if (rest.starts_with("&apos;")) {
        out->push_back('\'');
        i += 6;
      } else {
        out->push_back(raw[i++]);  // tolerate unknown entities literally
      }
    }
  }

  /// Content of `element`, which sits at nesting depth `depth`.
  Status ParseContent(DomNodeId element, std::size_t depth) {
    for (;;) {
      const std::size_t text_start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      if (pos_ > text_start) {
        std::string decoded;
        DecodeTextInto(input_.substr(text_start, pos_ - text_start),
                       &decoded);
        tree_.AppendText(element, decoded);
      }
      if (AtEnd()) return Fail("unexpected end inside element");
      if (Match("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (Match("<![CDATA[")) {
        const std::size_t start = pos_;
        SkipUntil("]]>");
        tree_.AppendText(element,
                         input_.substr(start, pos_ - 3 - start));
        continue;
      }
      if (Match("<?")) {
        SkipUntil("?>");
        continue;
      }
      if (input_.substr(pos_, 2) == "</") return Status::OK();
      NAVPATH_RETURN_NOT_OK(ParseElement(element, depth + 1));
    }
  }

  /// One element at nesting depth `depth` (the root is 1).
  Status ParseElement(DomNodeId parent, std::size_t depth) {
    if (depth > kMaxXmlDepth) {
      return Fail("elements nested deeper than " +
                  std::to_string(kMaxXmlDepth));
    }
    if (!Match("<")) return Fail("expected '<'");
    NAVPATH_ASSIGN_OR_RETURN(const std::string_view name, ParseName());
    const TagId tag = tags_->Intern(name);
    const DomNodeId element = parent == kNilDomNode
                                  ? tree_.CreateRoot(tag)
                                  : tree_.AppendChild(parent, tag);
    NAVPATH_RETURN_NOT_OK(ParseAttributes(element));
    if (Match("/>")) return Status::OK();
    if (!Match(">")) return Fail("expected '>'");
    NAVPATH_RETURN_NOT_OK(ParseContent(element, depth));
    if (!Match("</")) return Fail("expected end tag");
    NAVPATH_ASSIGN_OR_RETURN(const std::string_view end_name, ParseName());
    if (end_name != name) {
      return Fail("mismatched end tag </" + std::string(end_name) +
                  "> for <" + std::string(name) + ">");
    }
    SkipWhitespace();
    if (!Match(">")) return Fail("expected '>' after end tag name");
    return Status::OK();
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  TagRegistry* tags_;
  DomTree tree_;
};

}  // namespace

Result<DomTree> ParseXml(std::string_view input, TagRegistry* tags) {
  NAVPATH_CHECK(tags != nullptr);
  Parser parser(input, tags);
  return parser.Run();
}

}  // namespace navpath
