#include "tests/test_util.h"

#include <deque>

namespace navpath {

std::vector<DomNodeId> LiveDomNodes(const DomTree& tree) {
  std::vector<DomNodeId> live;
  std::vector<DomNodeId> stack{tree.root()};
  while (!stack.empty()) {
    const DomNodeId n = stack.back();
    stack.pop_back();
    live.push_back(n);
    for (DomNodeId a = tree.node(n).first_attr; a != kNilDomNode;
         a = tree.node(a).next_sibling) {
      live.push_back(a);
    }
    std::vector<DomNodeId> children;
    for (DomNodeId c = tree.node(n).first_child; c != kNilDomNode;
         c = tree.node(c).next_sibling) {
      children.push_back(c);
    }
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }
  return live;
}

Result<std::unordered_map<std::uint64_t, NodeID>> MapOrderToNodeID(
    Database* db, const ImportedDocument& doc, const DomTree& tree) {
  std::unordered_map<std::uint64_t, NodeID> by_order;
  std::deque<LogicalNode> queue;
  queue.push_back(LogicalNode{doc.root, 0, doc.root_order});
  CrossClusterCursor cursor(db);
  while (!queue.empty()) {
    const LogicalNode node = queue.front();
    queue.pop_front();
    if (!by_order.emplace(node.order, node.id).second) {
      return Status::Corruption("duplicate order key " +
                                std::to_string(node.order));
    }
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kAttribute, node.id));
    LogicalNode attr;
    for (;;) {
      NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&attr));
      if (!more) break;
      if (!by_order.emplace(attr.order, attr.id).second) {
        return Status::Corruption("duplicate attribute order key");
      }
    }
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kChild, node.id));
    LogicalNode child;
    for (;;) {
      NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&child));
      if (!more) break;
      queue.push_back(child);
    }
  }
  const std::size_t live = LiveDomNodes(tree).size();
  if (by_order.size() != live) {
    return Status::Corruption("store walk found " +
                              std::to_string(by_order.size()) +
                              " nodes, DOM has " + std::to_string(live));
  }
  return by_order;
}

}  // namespace navpath
