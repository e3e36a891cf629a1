// Minimal non-validating XML parser.
//
// Supports the XML subset the system queries: elements with character
// content. Attributes, comments, processing instructions, CDATA sections
// and the XML declaration are parsed and skipped (attributes are not
// queryable in this reproduction — the paper excludes them, Sec. 3.1).
// Entity references for the five predefined entities are decoded.
#ifndef NAVPATH_XML_PARSER_H_
#define NAVPATH_XML_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "xml/dom.h"

namespace navpath {

/// Deepest element nesting ParseXml accepts (the root element is depth
/// 1). The parser recurses once per level, so a bound keeps hostile input
/// from overflowing the stack. XMark documents nest about a dozen deep;
/// an ASan build needs ~7 KiB of stack per level, so 256 levels use under
/// a quarter of an 8 MiB stack.
inline constexpr std::size_t kMaxXmlDepth = 256;

/// Parses `input` into a DomTree using `tags` for interning.
/// Order keys are assigned before returning. Elements nested deeper than
/// kMaxXmlDepth are a ParseError.
Result<DomTree> ParseXml(std::string_view input, TagRegistry* tags);

}  // namespace navpath

#endif  // NAVPATH_XML_PARSER_H_
