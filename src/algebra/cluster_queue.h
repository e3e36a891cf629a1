// ClusterQueue: XSchedule's queue Q of unprocessed partial path instances,
// grouped by the cluster of their right end (Sec. 5.3.4).
//
// Clusters are logical page ids, and those are dense, so the queue is an
// array indexed by page rather than a search tree:
//   * every page heads a FIFO of instances; the FIFOs are linked through
//     one node pool, and a popped node goes on a free list, so a
//     steady-state cluster visit allocates nothing;
//   * every page carries XSchedule's `ready` flag (set while a completion
//     marker for the page waits in XSchedule's ready list);
//   * a bitmap with one bit per page marks the non-empty FIFOs, so the
//     lowest queued page is a scan over words.
// The page array and the bitmap grow on demand, never sized up front: a
// plan also hears about pages it never queued (completions of sibling
// queries' reads) and ids past its document's range (a snapshot's shadow
// pages).
//
// An empty FIFO and a page never queued are the same state. The queue has
// no order of its own to leak: within a page it answers in FIFO order,
// across pages in ascending page order (DESIGN.md, "Host-side
// containers").
#ifndef NAVPATH_ALGEBRA_CLUSTER_QUEUE_H_
#define NAVPATH_ALGEBRA_CLUSTER_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "algebra/path_instance.h"
#include "storage/page.h"

namespace navpath {

class ClusterQueue {
 public:
  /// Empties every FIFO and clears every ready flag; keeps the storage.
  void Clear();
  /// Sizes the node pool for `instances` queued at once.
  void Reserve(std::size_t instances) { nodes_.reserve(instances); }

  /// Instances queued over all pages.
  std::size_t size() const { return size_; }
  /// True when nothing is queued for `page`.
  bool empty(PageId page) const {
    return page >= pages_.size() || pages_[page].head == kNil;
  }
  /// Appends `inst` to the back of `page`'s FIFO.
  void Push(PageId page, const PathInstance& inst);
  /// Removes and returns the front of `page`'s FIFO; it must not be empty.
  PathInstance Pop(PageId page);
  /// The lowest page with queued instances, or kInvalidPageId.
  PageId LowestNonEmpty() const;

  bool ready(PageId page) const {
    return page < pages_.size() && pages_[page].ready;
  }
  /// Sets `page`'s ready flag; true when it was clear.
  bool SetReady(PageId page);
  void ClearReady(PageId page) {
    if (page < pages_.size()) pages_[page].ready = false;
  }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    PathInstance inst;
    std::uint32_t next = kNil;  // next in its page's FIFO, or in free_
  };
  struct Page {
    std::uint32_t head = kNil;  // node indices; kNil when empty
    std::uint32_t tail = kNil;
    bool ready = false;
  };

  /// Makes pages_ and nonempty_ reach `page`, which lies past pages_.
  void Grow(PageId page);

  std::vector<Page> pages_;
  std::vector<std::uint64_t> nonempty_;  // bit p: pages_[p].head != kNil
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;  // head of the free-node list
  std::size_t size_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_CLUSTER_QUEUE_H_
