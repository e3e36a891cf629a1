// Parser for the supported XPath fragment.
//
// Grammar (whitespace insignificant):
//   query    := count ('+' count)*            -- count mode
//             | path                          -- node mode
//   count    := 'count' '(' path ')'
//   path     := '/' relative? | '//' relative | relative
//   relative := step (('/' | '//') step)*
//   step     := (axisname '::')? nodetest | '..' | '.'
//   nodetest := NAME | '*' | 'node()'
//
// '//' is normalized: '//' before a child-axis name test becomes a single
// descendant step (XPath-equivalent and one step shorter); otherwise it
// expands to descendant-or-self::node().
#ifndef NAVPATH_XPATH_PARSER_H_
#define NAVPATH_XPATH_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "xpath/location_path.h"

namespace navpath {

/// Deepest predicate nesting ParsePath and ParseQuery accept (`/a[b[c]]`
/// nests two deep); deeper input is a ParseError. The parser recurses
/// once per level, so a bound keeps hostile input from overflowing the
/// stack. An ASan build needs ~9 KiB of stack per level, so 128 levels
/// use under a sixth of an 8 MiB stack.
inline constexpr std::size_t kMaxPredicateDepth = 128;

/// Parses a single location path. Names are interned in `tags`.
Result<LocationPath> ParsePath(std::string_view text, TagRegistry* tags);

/// Parses a full query (path or sum of counts).
Result<PathQuery> ParseQuery(std::string_view text, TagRegistry* tags);

}  // namespace navpath

#endif  // NAVPATH_XPATH_PARSER_H_
