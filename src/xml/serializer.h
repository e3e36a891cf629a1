// XML serializer for DomTree (round-tripping and examples).
#ifndef NAVPATH_XML_SERIALIZER_H_
#define NAVPATH_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/dom.h"

namespace navpath {

/// Serializes `tree` to XML text, with no indentation and escaped
/// character content.
std::string SerializeXml(const DomTree& tree);

/// Appends character content to `out`, escaping &, < and > (shared with
/// the store's navigational and scan-based exporters).
void AppendEscapedXmlText(std::string_view text, std::string* out);

/// Appends an attribute value to `out`, escaping &, < and ".
void AppendEscapedXmlAttribute(std::string_view value, std::string* out);

}  // namespace navpath

#endif  // NAVPATH_XML_SERIALIZER_H_
