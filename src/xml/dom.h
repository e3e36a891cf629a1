// In-memory DOM (arena-based labeled ordered tree, Sec. 3.1).
//
// The DOM is the logical-level representation: it is the input of the
// storage import, the source of truth for the test oracle, and what the
// XML parser produces. Query processing itself never touches it — the
// operators work exclusively on the paged store.
#ifndef NAVPATH_XML_DOM_H_
#define NAVPATH_XML_DOM_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "xml/tag_registry.h"

namespace navpath {

using DomNodeId = std::uint32_t;
constexpr DomNodeId kNilDomNode = std::numeric_limits<DomNodeId>::max();

/// Order keys are assigned with gaps (preorder rank * kOrderKeyGap) so
/// that nodes inserted later can receive midpoint keys without
/// renumbering — the insert-friendliness ORDPATHs provide in the paper's
/// setting (Sec. 5.5). ~1M inserts fit between any two original keys.
constexpr std::uint64_t kOrderKeyGap = 1ull << 20;

enum class DomNodeKind : std::uint8_t { kElement, kAttribute };

struct DomNode {
  DomNodeKind kind = DomNodeKind::kElement;
  /// Element tag, or attribute name for kAttribute nodes.
  TagId tag = 0;
  DomNodeId parent = kNilDomNode;
  DomNodeId first_child = kNilDomNode;
  DomNodeId last_child = kNilDomNode;
  DomNodeId next_sibling = kNilDomNode;
  DomNodeId prev_sibling = kNilDomNode;
  /// First attribute node (attributes chain through next_sibling but are
  /// NOT part of the child chain — the child/descendant axes never see
  /// them, only the attribute axis does).
  DomNodeId first_attr = kNilDomNode;
  /// Concatenated character content for elements; the value for
  /// attributes. (Text nodes themselves are not queryable, matching the
  /// paper's model, Sec. 3.1; the bytes still occupy page space.)
  std::string text;
  /// Document-order key; assigned by AssignOrderKeys(). Establishes
  /// document order (the role ORDPATHs play in the paper, Sec. 5.5).
  /// Attributes order directly after their element.
  std::uint64_t order = 0;
};

class DomTree {
 public:
  /// `tags` must outlive the tree.
  explicit DomTree(TagRegistry* tags) : tags_(tags) {
    NAVPATH_CHECK(tags != nullptr);
  }

  DomTree(const DomTree&) = delete;
  DomTree& operator=(const DomTree&) = delete;
  DomTree(DomTree&&) = default;
  DomTree& operator=(DomTree&&) = default;

  TagRegistry* tags() const { return tags_; }

  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return nodes_.size(); }
  DomNodeId root() const { return empty() ? kNilDomNode : 0; }

  DomNodeId CreateRoot(TagId tag) {
    NAVPATH_CHECK_MSG(empty(), "root already exists");
    nodes_.emplace_back();
    nodes_[0].tag = tag;
    return 0;
  }

  DomNodeId AppendChild(DomNodeId parent, TagId tag) {
    NAVPATH_DCHECK(parent < nodes_.size());
    const DomNodeId id = static_cast<DomNodeId>(nodes_.size());
    nodes_.emplace_back();
    DomNode& n = nodes_[id];
    n.tag = tag;
    n.parent = parent;
    DomNode& p = nodes_[parent];
    if (p.last_child == kNilDomNode) {
      p.first_child = id;
    } else {
      nodes_[p.last_child].next_sibling = id;
      n.prev_sibling = p.last_child;
    }
    p.last_child = id;
    return id;
  }

  void AppendText(DomNodeId node, std::string_view text) {
    NAVPATH_DCHECK(node < nodes_.size());
    nodes_[node].text.append(text);
  }

  /// Appends an attribute to `element` (document order of attributes is
  /// their insertion order).
  DomNodeId AddAttribute(DomNodeId element, TagId name,
                         std::string_view value) {
    NAVPATH_DCHECK(element < nodes_.size());
    NAVPATH_DCHECK(nodes_[element].kind == DomNodeKind::kElement);
    const DomNodeId id = static_cast<DomNodeId>(nodes_.size());
    nodes_.emplace_back();
    DomNode& a = nodes_[id];
    a.kind = DomNodeKind::kAttribute;
    a.tag = name;
    a.parent = element;
    a.text = value;
    DomNodeId* link = &nodes_[element].first_attr;
    while (*link != kNilDomNode) link = &nodes_[*link].next_sibling;
    *link = id;
    return id;
  }

  /// Number of element nodes reachable from the root (attributes and
  /// detached mirror subtrees excluded).
  std::size_t element_count() const;

  /// Number of attribute nodes reachable from the root.
  std::size_t attribute_count() const;

  /// Inserts a new element under `parent` after child `after` (kNilDomNode
  /// == as first child). Arena nodes are append-only, so DomNodeIds are
  /// NOT in document order after this; order keys are not assigned (used
  /// for mirroring store updates in tests).
  DomNodeId InsertChild(DomNodeId parent, DomNodeId after, TagId tag) {
    NAVPATH_DCHECK(parent < nodes_.size());
    const DomNodeId id = static_cast<DomNodeId>(nodes_.size());
    nodes_.emplace_back();
    DomNode& n = nodes_[id];
    n.tag = tag;
    n.parent = parent;
    DomNode& p = nodes_[parent];
    const DomNodeId next =
        after == kNilDomNode ? p.first_child : nodes_[after].next_sibling;
    n.prev_sibling = after;
    n.next_sibling = next;
    if (after == kNilDomNode) {
      p.first_child = id;
    } else {
      nodes_[after].next_sibling = id;
    }
    if (next == kNilDomNode) {
      p.last_child = id;
    } else {
      nodes_[next].prev_sibling = id;
    }
    return id;
  }

  /// Unlinks the subtree rooted at `node` (nodes stay allocated; size()
  /// and CountTag() become stale — test-mirroring only).
  void RemoveSubtree(DomNodeId node) {
    NAVPATH_DCHECK(node < nodes_.size() && node != root());
    DomNode& n = nodes_[node];
    DomNode& p = nodes_[n.parent];
    if (n.prev_sibling == kNilDomNode) {
      p.first_child = n.next_sibling;
    } else {
      nodes_[n.prev_sibling].next_sibling = n.next_sibling;
    }
    if (n.next_sibling == kNilDomNode) {
      p.last_child = n.prev_sibling;
    } else {
      nodes_[n.next_sibling].prev_sibling = n.prev_sibling;
    }
    n.parent = kNilDomNode;
    n.prev_sibling = kNilDomNode;
    n.next_sibling = kNilDomNode;
  }

  const DomNode& node(DomNodeId id) const {
    NAVPATH_DCHECK(id < nodes_.size());
    return nodes_[id];
  }

  const std::string& TagName(DomNodeId id) const {
    return tags_->Name(node(id).tag);
  }

  /// Assigns gapped preorder keys to every node. Call once after
  /// construction.
  void AssignOrderKeys();

  /// Sets one node's order key (mirroring a store-side insertion).
  void SetOrder(DomNodeId id, std::uint64_t order) {
    NAVPATH_DCHECK(id < nodes_.size());
    nodes_[id].order = order;
  }

  /// Number of elements with tag `tag` (handy for generator tests).
  std::size_t CountTag(TagId tag) const;

 private:
  TagRegistry* tags_;
  std::vector<DomNode> nodes_;
};

}  // namespace navpath

#endif  // NAVPATH_XML_DOM_H_
