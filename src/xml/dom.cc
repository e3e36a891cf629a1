#include "xml/dom.h"

namespace navpath {

void DomTree::AssignOrderKeys() {
  if (empty()) return;
  std::uint64_t next = 0;
  std::vector<DomNodeId> stack;
  stack.push_back(root());
  while (!stack.empty()) {
    const DomNodeId id = stack.back();
    stack.pop_back();
    nodes_[id].order = next;
    // Attributes come directly after their element in document order;
    // they use the low bits of the element's gap.
    std::uint64_t attr_offset = 1;
    for (DomNodeId a = nodes_[id].first_attr; a != kNilDomNode;
         a = nodes_[a].next_sibling) {
      nodes_[a].order = next + attr_offset++;
    }
    next += kOrderKeyGap;
    // Push children in reverse so the first child is visited first.
    std::vector<DomNodeId> children;
    for (DomNodeId c = nodes_[id].first_child; c != kNilDomNode;
         c = nodes_[c].next_sibling) {
      children.push_back(c);
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
}

namespace {

template <typename Fn>
void VisitReachable(const DomTree& tree, Fn&& fn) {
  if (tree.empty()) return;
  std::vector<DomNodeId> stack{tree.root()};
  while (!stack.empty()) {
    const DomNodeId id = stack.back();
    stack.pop_back();
    fn(id);
    for (DomNodeId a = tree.node(id).first_attr; a != kNilDomNode;
         a = tree.node(a).next_sibling) {
      fn(a);
    }
    for (DomNodeId c = tree.node(id).first_child; c != kNilDomNode;
         c = tree.node(c).next_sibling) {
      stack.push_back(c);
    }
  }
}

}  // namespace

std::size_t DomTree::element_count() const {
  std::size_t count = 0;
  VisitReachable(*this, [&](DomNodeId id) {
    if (node(id).kind == DomNodeKind::kElement) ++count;
  });
  return count;
}

std::size_t DomTree::attribute_count() const {
  std::size_t count = 0;
  VisitReachable(*this, [&](DomNodeId id) {
    if (node(id).kind == DomNodeKind::kAttribute) ++count;
  });
  return count;
}

std::size_t DomTree::CountTag(TagId tag) const {
  std::size_t count = 0;
  for (const DomNode& n : nodes_) {
    if (n.kind == DomNodeKind::kElement && n.tag == tag) ++count;
  }
  return count;
}

}  // namespace navpath
