#include "xpath/parser.h"

#include <cctype>
#include <string>

namespace navpath {

std::string Predicate::ToString() const {
  std::string out = "[" + path->ToString();
  if (has_value) out += "=\"" + value + "\"";
  return out + "]";
}

std::string LocationStep::ToString() const {
  std::string out = std::string(AxisName(axis)) + "::" + test.ToString();
  for (const Predicate& pred : predicates) out += pred.ToString();
  return out;
}

std::string LocationPath::ToString() const {
  std::string out = absolute ? "/" : "";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += "/";
    out += steps[i].ToString();
  }
  return out;
}

std::string PathQuery::ToString() const {
  if (mode == Mode::kNodes) return paths.front().ToString();
  const char* fn = mode == Mode::kExists ? "exists" : "count";
  std::string out;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) out += "+";
    out += std::string(fn) + "(" + paths[i].ToString() + ")";
  }
  return out;
}

namespace {

class PathParser {
 public:
  PathParser(std::string_view text, TagRegistry* tags)
      : text_(text), tags_(tags) {}

  Result<LocationPath> ParsePathOnly() {
    NAVPATH_ASSIGN_OR_RETURN(LocationPath path, ParsePathExpr(0));
    SkipSpace();
    if (!AtEnd()) return Error("trailing characters after path");
    return path;
  }

  Result<PathQuery> ParseQueryExpr() {
    SkipSpace();
    PathQuery query;
    if (PeekWord("count")) {
      query.mode = PathQuery::Mode::kCount;
      for (;;) {
        SkipSpace();
        if (!MatchWord("count")) return Error("expected 'count'");
        SkipSpace();
        if (!Match('(')) return Error("expected '(' after count");
        NAVPATH_ASSIGN_OR_RETURN(LocationPath path, ParsePathExpr(0));
        SkipSpace();
        if (!Match(')')) return Error("expected ')' after count path");
        query.paths.push_back(std::move(path));
        SkipSpace();
        if (!Match('+')) break;
      }
    } else if (PeekWord("exists")) {
      // exists(path): true iff the path selects at least one node. An
      // existence query over several paths (exists(a)+exists(b)) is the
      // logical OR, mirroring count()'s additive form.
      query.mode = PathQuery::Mode::kExists;
      for (;;) {
        SkipSpace();
        if (!MatchWord("exists")) return Error("expected 'exists'");
        SkipSpace();
        if (!Match('(')) return Error("expected '(' after exists");
        NAVPATH_ASSIGN_OR_RETURN(LocationPath path, ParsePathExpr(0));
        SkipSpace();
        if (!Match(')')) return Error("expected ')' after exists path");
        query.paths.push_back(std::move(path));
        SkipSpace();
        if (!Match('+')) break;
      }
    } else {
      query.mode = PathQuery::Mode::kNodes;
      NAVPATH_ASSIGN_OR_RETURN(LocationPath path, ParsePathExpr(0));
      query.paths.push_back(std::move(path));
    }
    SkipSpace();
    if (!AtEnd()) return Error("trailing characters after query");
    return query;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Match(char c) {
    if (!AtEnd() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Match2(char a, char b) {
    if (pos_ + 1 < text_.size() && text_[pos_] == a && text_[pos_ + 1] == b) {
      pos_ += 2;
      return true;
    }
    return false;
  }
  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  bool PeekWord(std::string_view w) const {
    return text_.substr(pos_, w.size()) == w;
  }
  bool MatchWord(std::string_view w) {
    if (PeekWord(w)) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status Error(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_) +
                              " in '" + std::string(text_) + "'");
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.';
  }

  Result<std::string_view> ParseName() {
    SkipSpace();
    const std::size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) {
      return Result<std::string_view>(Error("expected name"));
    }
    return text_.substr(start, pos_ - start);
  }

  /// Parses one step; `after_slash_slash` requests '//'-normalization.
  /// `depth` is the predicate nesting of the enclosing path.
  Status ParseStep(bool after_slash_slash, std::size_t depth,
                   LocationPath* path) {
    SkipSpace();
    if (Match2('.', '.')) {
      if (after_slash_slash) {
        path->steps.push_back(
            LocationStep{Axis::kDescendantOrSelf, NodeTest::AnyNode(), {}});
      }
      path->steps.push_back(
          LocationStep{Axis::kParent, NodeTest::AnyNode(), {}});
      return Status::OK();
    }
    if (!AtEnd() && Peek() == '.' &&
        (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '.')) {
      ++pos_;
      if (after_slash_slash) {
        path->steps.push_back(
            LocationStep{Axis::kDescendantOrSelf, NodeTest::AnyNode(), {}});
      }
      path->steps.push_back(
          LocationStep{Axis::kSelf, NodeTest::AnyNode(), {}});
      return Status::OK();
    }

    Axis axis = Axis::kChild;
    bool explicit_axis = false;
    // following:: and preceding:: are rewritten into the standard XPath
    // identity  ancestor-or-self::node()/xxx-sibling::node()/
    // descendant-or-self::<test>  so the physical algebra needs no new
    // primitives.
    bool rewrite_sibling_closure = false;
    Axis sibling_axis = Axis::kFollowingSibling;
    if (Match('@')) {
      axis = Axis::kAttribute;
      explicit_axis = true;
    }
    // Look ahead for 'axisname::' (unless '@' already fixed the axis).
    const std::size_t save = pos_;
    if (!explicit_axis && !AtEnd() &&
        std::isalpha(static_cast<unsigned char>(Peek()))) {
      const auto name_result = ParseName();
      if (name_result.ok() && Match2(':', ':')) {
        if (*name_result == "following" || *name_result == "preceding") {
          rewrite_sibling_closure = true;
          sibling_axis = *name_result == "following"
                             ? Axis::kFollowingSibling
                             : Axis::kPrecedingSibling;
          axis = Axis::kDescendantOrSelf;
          explicit_axis = true;
        } else {
          const auto parsed = AxisFromName(*name_result);
          if (!parsed.has_value()) {
            return Error("unsupported axis '" + std::string(*name_result) +
                         "'");
          }
          axis = *parsed;
          explicit_axis = true;
        }
      } else {
        pos_ = save;
      }
    }

    NodeTest test;
    SkipSpace();
    if (Match('*')) {
      test = NodeTest::Wildcard();
    } else {
      NAVPATH_ASSIGN_OR_RETURN(const std::string_view name, ParseName());
      if (name == "node" && Match2('(', ')')) {
        test = NodeTest::AnyNode();
      } else {
        test = NodeTest::Name(std::string(name), tags_->Intern(name));
      }
    }

    if (after_slash_slash) {
      if (!explicit_axis) {
        // '//' + child step  ==  one descendant step.
        axis = Axis::kDescendant;
      } else {
        path->steps.push_back(
            LocationStep{Axis::kDescendantOrSelf, NodeTest::AnyNode(), {}});
      }
    }
    if (rewrite_sibling_closure) {
      path->steps.push_back(
          LocationStep{Axis::kAncestorOrSelf, NodeTest::AnyNode(), {}});
      path->steps.push_back(
          LocationStep{sibling_axis, NodeTest::AnyNode(), {}});
    }
    LocationStep step{axis, std::move(test), {}};
    SkipSpace();
    while (Match('[')) {
      NAVPATH_RETURN_NOT_OK(ParsePredicate(depth + 1, &step));
      SkipSpace();
    }
    path->steps.push_back(std::move(step));
    return Status::OK();
  }

  /// Parses a predicate at nesting depth `depth` (the outermost is 1).
  Status ParsePredicate(std::size_t depth, LocationStep* step) {
    if (depth > kMaxPredicateDepth) {
      return Error("predicates nested deeper than " +
                   std::to_string(kMaxPredicateDepth));
    }
    Predicate pred;
    NAVPATH_ASSIGN_OR_RETURN(LocationPath inner, ParsePathExpr(depth));
    if (inner.absolute) {
      return Error("predicates must contain relative paths");
    }
    pred.path = std::make_shared<LocationPath>(std::move(inner));
    SkipSpace();
    if (Match('=')) {
      SkipSpace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected string literal after '=' in predicate");
      }
      const char quote = Peek();
      ++pos_;
      const std::size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Error("unterminated string literal");
      }
      pred.has_value = true;
      pred.value = std::string(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
      SkipSpace();
    }
    if (!Match(']')) return Error("expected ']' after predicate");
    step->predicates.push_back(std::move(pred));
    return Status::OK();
  }

  /// Parses a path at predicate nesting depth `depth` (0 outside any).
  Result<LocationPath> ParsePathExpr(std::size_t depth) {
    SkipSpace();
    LocationPath path;
    bool pending_slash_slash = false;
    if (Match2('/', '/')) {
      path.absolute = true;
      pending_slash_slash = true;
    } else if (Match('/')) {
      path.absolute = true;
      SkipSpace();
      if (AtEnd() || Peek() == ')' || Peek() == '+') {
        return path;  // "/" selects just the root context
      }
    } else {
      path.absolute = false;
    }
    for (;;) {
      NAVPATH_RETURN_NOT_OK(ParseStep(pending_slash_slash, depth, &path));
      SkipSpace();
      if (Match2('/', '/')) {
        pending_slash_slash = true;
      } else if (Match('/')) {
        pending_slash_slash = false;
      } else {
        break;
      }
    }
    if (path.absolute && !path.steps.empty()) {
      // Absolute paths start at XPath's implicit document node, one level
      // above the root element. Our evaluation context is the root
      // element itself, so the first step is projected accordingly:
      // child::X from the document node selects the root element iff it
      // is an X (self::X), and descendant::X includes the root element
      // (descendant-or-self::X). Other first-step axes are degenerate at
      // the document node and keep their root-element meaning.
      LocationStep& first = path.steps.front();
      if (first.axis == Axis::kChild) {
        first.axis = Axis::kSelf;
      } else if (first.axis == Axis::kDescendant) {
        first.axis = Axis::kDescendantOrSelf;
      }
    }
    return path;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  TagRegistry* tags_;
};

}  // namespace

Result<LocationPath> ParsePath(std::string_view text, TagRegistry* tags) {
  NAVPATH_CHECK(tags != nullptr);
  PathParser parser(text, tags);
  return parser.ParsePathOnly();
}

Result<PathQuery> ParseQuery(std::string_view text, TagRegistry* tags) {
  NAVPATH_CHECK(tags != nullptr);
  PathParser parser(text, tags);
  return parser.ParseQueryExpr();
}

}  // namespace navpath
