#include "algebra/cluster_queue.h"

#include <bit>

#include "common/macros.h"

namespace navpath {

void ClusterQueue::Clear() {
  pages_.clear();
  nonempty_.clear();
  nodes_.clear();
  free_ = kNil;
  size_ = 0;
}

void ClusterQueue::Grow(PageId page) {
  NAVPATH_DCHECK(page != kInvalidPageId);
  // resize() grows the capacity geometrically, so pages arriving in
  // ascending order cost amortized constant time each.
  pages_.resize(std::size_t{page} + 1);
  nonempty_.resize((pages_.size() + 63) / 64);
}

void ClusterQueue::Push(PageId page, const PathInstance& inst) {
  if (page >= pages_.size()) Grow(page);
  std::uint32_t index = free_;
  if (index != kNil) {
    free_ = nodes_[index].next;
    nodes_[index] = Node{inst, kNil};
  } else {
    index = static_cast<std::uint32_t>(nodes_.size());
    NAVPATH_CHECK(index != kNil);
    nodes_.push_back(Node{inst, kNil});
  }
  Page& p = pages_[page];
  if (p.head == kNil) {
    p.head = index;
    nonempty_[page / 64] |= std::uint64_t{1} << (page % 64);
  } else {
    nodes_[p.tail].next = index;
  }
  p.tail = index;
  ++size_;
}

PathInstance ClusterQueue::Pop(PageId page) {
  NAVPATH_DCHECK(!empty(page));
  Page& p = pages_[page];
  const std::uint32_t index = p.head;
  Node& node = nodes_[index];
  p.head = node.next;
  if (p.head == kNil) {
    p.tail = kNil;
    nonempty_[page / 64] &= ~(std::uint64_t{1} << (page % 64));
  }
  node.next = free_;
  free_ = index;
  --size_;
  return node.inst;
}

PageId ClusterQueue::LowestNonEmpty() const {
  for (std::size_t w = 0; w < nonempty_.size(); ++w) {
    if (nonempty_[w] != 0) {
      return static_cast<PageId>(w * 64 + std::countr_zero(nonempty_[w]));
    }
  }
  return kInvalidPageId;
}

bool ClusterQueue::SetReady(PageId page) {
  if (page >= pages_.size()) Grow(page);
  const bool was_clear = !pages_[page].ready;
  pages_[page].ready = true;
  return was_clear;
}

}  // namespace navpath
