// XPath axes supported by the navigational primitives.
#ifndef NAVPATH_STORE_AXIS_H_
#define NAVPATH_STORE_AXIS_H_

#include <optional>
#include <string_view>

namespace navpath {

enum class Axis {
  kSelf,
  kChild,
  kParent,
  kDescendant,
  kDescendantOrSelf,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kAttribute,
};

inline const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

inline std::optional<Axis> AxisFromName(std::string_view name) {
  if (name == "self") return Axis::kSelf;
  if (name == "child") return Axis::kChild;
  if (name == "parent") return Axis::kParent;
  if (name == "descendant") return Axis::kDescendant;
  if (name == "descendant-or-self") return Axis::kDescendantOrSelf;
  if (name == "ancestor") return Axis::kAncestor;
  if (name == "ancestor-or-self") return Axis::kAncestorOrSelf;
  if (name == "following-sibling") return Axis::kFollowingSibling;
  if (name == "preceding-sibling") return Axis::kPrecedingSibling;
  if (name == "attribute") return Axis::kAttribute;
  return std::nullopt;
}

}  // namespace navpath

#endif  // NAVPATH_STORE_AXIS_H_
