// Intra-cluster navigational primitives (Sec. 3.5).
//
// ClusterView is a cheap value view over one *pinned* page that charges
// simulated CPU cost for every link followed and node inspected. Its
// AxisCursor enumerates the nodes reachable from an origin record along
// an XPath axis *using intra-cluster navigation only*: core nodes are
// yielded as results, border records are yielded as crossings whose
// partner NodeID names the cluster where the step continues. Next()
// yields every entry; Scan() runs on to the next crossing or the next
// record that passes a node test. The descendant axes scan the page's
// preorder image (NavIndex) instead of following links, and charge
// exactly the hops the link walk would have followed. The other axes
// follow the page's slot links, reading every record through
// TreePage::ReadChecked and at most slot_count links per cursor, so no
// byte pattern makes a cursor read outside its page or run forever
// (DESIGN.md §3 "Checked link walks").
//
// The origin record may itself be a border record, in which case the
// cursor enumerates the continuation of a partially evaluated step that
// crossed *into* this cluster at that record:
//   * child / sibling axes arriving at an up-border continue through the
//     border's child chain,
//   * sibling axes arriving at a down-border continue along the chain the
//     down-border interrupts,
//   * descendant axes arriving at an up-border continue through the whole
//     fragment below it,
//   * parent / ancestor axes arriving at a down-border continue upwards
//     from its physical parent.
// Direction/record-kind combinations that cannot occur as real
// continuations (e.g. child from a down-border) enumerate nothing, which
// is what XScan's speculative seeds rely on (Sec. 5.4.3: seeds that fail
// to extend are filtered). So does an origin no checked read accepts.
#ifndef NAVPATH_STORE_CLUSTER_VIEW_H_
#define NAVPATH_STORE_CLUSTER_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "storage/cpu_cost_model.h"
#include "store/axis.h"
#include "store/nav_index.h"
#include "store/node_id.h"
#include "store/tree_page.h"

namespace navpath {

/// One enumeration result: either a core node in this cluster or a border
/// crossing to another cluster.
struct NavEntry {
  SlotId slot = kInvalidSlot;
  bool crossing = false;
};

class ClusterView {
 public:
  /// `images` and `physical_page` name where the page's preorder image is
  /// kept (Database::MakeView); without them every descendant enumeration
  /// step builds the image from the bytes (views of bytes outside the
  /// buffer pool).
  ClusterView(const std::byte* data, std::size_t page_size, PageId page_id,
              SimClock* clock, const CpuCostModel* costs, Metrics* metrics,
              NavIndexCache* images = nullptr,
              PageId physical_page = kInvalidPageId)
      : page_(TreePage::ReadOnly(data, page_size)),
        page_id_(page_id),
        clock_(clock),
        costs_(costs),
        metrics_(metrics),
        images_(images),
        physical_page_(physical_page) {}

  PageId page_id() const { return page_id_; }
  std::uint16_t slot_count() const { return page_.slot_count(); }

  /// The page's bytes, for readers that follow links themselves (the
  /// exports) and for debug checks.
  const TreePage& page() const { return page_; }

  // Fields of a record a cursor returned, which ReadChecked or the image's
  // build accepted, so they lie inside the page: a core or attribute
  // record's tag, order key and text, and a border's partner, target(x)
  // of the paper.
  TagId TagOf(SlotId slot) const { return page_.TagOf(slot); }
  std::uint64_t OrderOf(SlotId slot) const { return page_.OrderOf(slot); }
  std::string_view TextOf(SlotId slot) const { return page_.TextOf(slot); }
  NodeID PartnerOf(SlotId slot) const { return page_.PartnerOf(slot); }

  NodeID IdOf(SlotId slot) const { return NodeID{page_id_, slot}; }

  void ChargeHop() const {
    clock_->ChargeCpu(costs_->record_hop);
    ++metrics_->intra_cluster_hops;
  }
  /// The same effect as `hops` ChargeHop()s and `tests` node tests
  /// (`node_test` each): one ChargeCpu per cost kind, then the counters.
  void ChargeNavigation(std::uint64_t hops, std::uint64_t tests) const {
    clock_->ChargeCpu(hops * costs_->record_hop);
    clock_->ChargeCpu(tests * costs_->node_test);
    metrics_->intra_cluster_hops += hops;
    metrics_->node_tests += tests;
  }

  /// The page's preorder image, valid until the next call on any view.
  const NavIndex& Index() const {
    return images_ != nullptr
               ? images_->Get(physical_page_, page_.bytes(), page_.page_size())
               : UnpooledIndex();
  }

 private:
  const NavIndex& UnpooledIndex() const;

  TreePage page_;
  PageId page_id_;
  SimClock* clock_;
  const CpuCostModel* costs_;
  Metrics* metrics_;
  NavIndexCache* images_;
  PageId physical_page_;
};

/// Streaming enumeration of one axis from one origin record. Holds the
/// ClusterView by value; the underlying page must stay pinned while the
/// cursor is in use.
class AxisCursor {
 public:
  AxisCursor() = default;
  AxisCursor(const ClusterView& view, Axis axis, SlotId origin);

  /// Produces the next entry; false when the enumeration is exhausted.
  /// Charges the hops that led to it before returning.
  bool Next(NavEntry* out);

  /// Runs on to the next crossing or the next record whose tag is `tag`
  /// (every record when `tag` is empty: `*` and `node()`); false when
  /// the enumeration is exhausted first. Counts one node test per
  /// non-crossing entry it passes over or stops at, and charges the
  /// tests and the hops once, before returning: the totals of Next()
  /// with a charged test of each non-crossing entry, in one call.
  bool Scan(std::optional<TagId> tag, NavEntry* out);

  /// Re-points the cursor at a fresh view of the *same* page after the
  /// page was unfixed and fixed again (slot state stays valid; the buffer
  /// frame may have moved).
  void Rebind(const ClusterView& view) { view_ = view; }

 private:
  enum class Mode : std::uint8_t {
    kDone,
    kEmitSelf,   // pending self emission (self / *-or-self)
    kNext,       // next-sibling links: child, following-sibling, attribute
    kPrev,       // previous-sibling links: preceding-sibling
    kParent,     // one parent link
    kAncestors,  // parent links up to the fragment's root
    kPreorder,   // descendant(-or-self): the preorder image
  };

  struct Tally {
    std::uint64_t hops = 0;
    std::uint64_t tests = 0;
  };

  // What a walk returns: every entry (Next), or, counting a node test per
  // non-crossing entry it passes over or stops at, the next crossing or
  // record whose tag is `want` (Scan; every record when `any`).
  struct Filter {
    bool scan = false;
    bool any = true;
    TagId want = 0;
  };
  static bool Takes(const Filter& filter, TagId tag, bool crossing,
                    Tally* tally) {
    if (!filter.scan || crossing) return true;
    ++tally->tests;
    return filter.any || tag == filter.want;
  }

  // Each walk runs until it returns an entry the filter takes, which it
  // writes to `out`, or until the axis is exhausted. Hops and tests go to
  // the tally; the caller charges it.
  bool Advance(const Filter& filter, Tally* tally, NavEntry* out);
  // Follows the mode's link from current_, one checked record per hop.
  bool Walk(const Filter& filter, Tally* tally, NavEntry* out);
  // The descendant walk: a scan of the preorder image from current_'s
  // entry through the origin's subtree.
  bool ScanPreorder(const Filter& filter, Tally* tally, NavEntry* out);

  ClusterView view_{nullptr, 0, kInvalidPageId, nullptr, nullptr, nullptr};
  Axis axis_ = Axis::kSelf;
  Mode mode_ = Mode::kDone;
  Mode after_self_ = Mode::kDone;  // mode entered after kEmitSelf
  SlotId origin_ = kInvalidSlot;
  SlotId current_ = kInvalidSlot;
  // Links the walk may still follow: slot_count at the start, enough for
  // any chain on a well-formed page, which visits each slot at most once.
  std::uint16_t budget_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_STORE_CLUSTER_VIEW_H_
