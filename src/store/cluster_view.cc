#include "store/cluster_view.h"

namespace navpath {

AxisCursor::AxisCursor(const ClusterView& view, Axis axis, SlotId origin)
    : view_(view), axis_(axis), origin_(origin), budget_(view.slot_count()) {
  TreePage::CheckedRecord o;
  if (!view_.page().ReadChecked(origin, &o)) return;  // nothing here
  const RecordKind k = o.kind;
  switch (axis) {
    case Axis::kSelf:
      if (k == RecordKind::kCore || k == RecordKind::kAttribute) {
        mode_ = Mode::kEmitSelf;
      }
      break;
    case Axis::kAttribute:
      if (k == RecordKind::kCore) {
        mode_ = Mode::kNext;
        current_ = o.first_attr;
      }
      break;
    case Axis::kChild:
      if (k == RecordKind::kCore || k == RecordKind::kBorderUp) {
        mode_ = Mode::kNext;
        current_ = o.first_child;
      }
      break;
    case Axis::kFollowingSibling:
      if (k == RecordKind::kBorderUp) {
        // A crossing along the sibling chain arrived here: the border's
        // children are the chain's continuation.
        mode_ = Mode::kNext;
        current_ = o.first_child;
      } else if (k != RecordKind::kAttribute) {
        mode_ = Mode::kNext;
        current_ = o.next_sibling;
      }
      break;
    case Axis::kPrecedingSibling:
      if (k == RecordKind::kBorderUp) {
        mode_ = Mode::kPrev;
        current_ = o.last_child;
      } else if (k != RecordKind::kAttribute) {
        mode_ = Mode::kPrev;
        current_ = o.prev_sibling;
      }
      break;
    case Axis::kParent:
      if (k != RecordKind::kBorderUp) {
        mode_ = Mode::kParent;
        current_ = o.parent;
      }
      break;
    case Axis::kAncestor:
      if (k != RecordKind::kBorderUp) {
        mode_ = Mode::kAncestors;
        current_ = o.parent;
      }
      break;
    case Axis::kAncestorOrSelf:
      if (k == RecordKind::kCore || k == RecordKind::kAttribute) {
        mode_ = Mode::kEmitSelf;
        after_self_ = Mode::kAncestors;
        current_ = o.parent;
      } else if (k == RecordKind::kBorderDown) {
        // "self" was already produced in the cluster the step came from.
        mode_ = Mode::kAncestors;
        current_ = o.parent;
      }
      break;
    case Axis::kDescendant:
      if (k == RecordKind::kCore || k == RecordKind::kBorderUp) {
        mode_ = Mode::kPreorder;
        current_ = origin;
      }
      break;
    case Axis::kDescendantOrSelf:
      if (k == RecordKind::kCore) {
        mode_ = Mode::kEmitSelf;
        after_self_ = Mode::kPreorder;
        current_ = origin;
      } else if (k == RecordKind::kBorderUp) {
        mode_ = Mode::kPreorder;
        current_ = origin;
      } else if (k == RecordKind::kAttribute) {
        mode_ = Mode::kEmitSelf;  // an attribute's only "descendant"
      }
      break;
  }
}

bool AxisCursor::Next(NavEntry* out) {
  Tally tally;
  const bool found = Advance(Filter{}, &tally, out);
  view_.ChargeNavigation(tally.hops, tally.tests);
  return found;
}

bool AxisCursor::Scan(std::optional<TagId> tag, NavEntry* out) {
  Tally tally;
  const bool found = Advance(
      Filter{/*scan=*/true, !tag.has_value(), tag.value_or(0)}, &tally, out);
  view_.ChargeNavigation(tally.hops, tally.tests);
  return found;
}

bool AxisCursor::Advance(const Filter& filter, Tally* tally, NavEntry* out) {
  if (mode_ == Mode::kEmitSelf) {
    mode_ = after_self_;
    ++tally->hops;
    // The constructor's checked read accepted the origin as a core or
    // attribute record, so its tag lies inside the page.
    if (Takes(filter, view_.TagOf(origin_), false, tally)) {
      *out = NavEntry{origin_, false};
      return true;
    }
  }
  switch (mode_) {
    case Mode::kDone:
    case Mode::kEmitSelf:  // never follows itself
      return false;
    case Mode::kPreorder:
      return ScanPreorder(filter, tally, out);
    case Mode::kNext:
    case Mode::kPrev:
    case Mode::kParent:
    case Mode::kAncestors:
      return Walk(filter, tally, out);
  }
  return false;
}

bool AxisCursor::Walk(const Filter& filter, Tally* tally, NavEntry* out) {
  // One hop per record the walk arrives at; a chain that comes back to the
  // origin (an up-border's ring of children) ends there, uncharged. Every
  // record is read through ReadChecked and every arrival spends one link of
  // the budget, so a record the read refuses, one of a kind that cannot sit
  // on the walk's chain, or a spent budget ends the walk. None of these
  // happens on a page that import and update wrote. The walk keeps its
  // state, the page view and its counts in locals and writes them back
  // once, when it returns.
  const TreePage page = view_.page();
  const RecordKind member =
      axis_ == Axis::kAttribute ? RecordKind::kAttribute : RecordKind::kCore;
  const Mode mode = mode_;
  const bool sibling_links = mode == Mode::kNext || mode == Mode::kPrev;
  const SlotId origin = origin_;
  std::uint16_t budget = budget_;
  Tally counted;
  Mode after = Mode::kDone;
  bool found = false;
  for (SlotId s = current_; s != kInvalidSlot && s != origin && budget > 0;) {
    --budget;
    ++counted.hops;
    TreePage::CheckedRecord rec;
    if (!page.ReadChecked(s, &rec)) break;
    if (rec.kind == RecordKind::kBorderUp && member == RecordKind::kCore) {
      // A sibling chain's end or the fragment's parent: the axis continues
      // in the partner cluster, except child, for which the border is no
      // child.
      found = axis_ != Axis::kChild;
      if (found) *out = NavEntry{s, true};
      break;
    }
    // A down-border interrupts a sibling chain: the chain crosses there.
    const bool crossing = rec.kind == RecordKind::kBorderDown &&
                          sibling_links && member == RecordKind::kCore;
    if (rec.kind != member && !crossing) break;
    const SlotId next = mode == Mode::kNext        ? rec.next_sibling
                        : mode == Mode::kPrev      ? rec.prev_sibling
                        : mode == Mode::kAncestors ? rec.parent
                                                   : kInvalidSlot;
    if (Takes(filter, rec.tag, crossing, &counted)) {
      after = mode;
      current_ = next;  // kInvalidSlot after a parent step: the next call ends
      *out = NavEntry{s, crossing};
      found = true;
      break;
    }
    s = next;
  }
  mode_ = after;
  budget_ = budget;
  tally->hops += counted.hops;
  tally->tests += counted.tests;
  return found;
}

bool AxisCursor::ScanPreorder(const Filter& filter, Tally* tally,
                              NavEntry* out) {
  // The link walk this replaces follows one link to arrive at each record
  // it visits, and probes one next-sibling link as each record's subtree
  // ends, the origin's excepted. Between preorder positions k and k + 1,
  // d(k) - d(k + 1) + 1 subtrees end, so reaching position j from i costs
  // 2(j - i) + d(i) - d(j) hops, and running past the origin's last
  // subtree position E costs 2(E - i) + d(i) - d(origin).
  const NavIndex& index = view_.Index();
  const std::size_t root = index.PositionOf(origin_);
  const std::size_t from = index.PositionOf(current_);
  mode_ = Mode::kDone;
  if (root == NavIndex::kNoPosition || from == NavIndex::kNoPosition) {
    return false;  // no placed record: nothing below it in this page
  }
  const NavIndex::Entry* const e = index.entries();
  const std::size_t n = index.size();
  const unsigned top = e[root].depth;
  if (from < root || (from != root && e[from].depth <= top)) return false;
  std::size_t j = from + 1;
  if (filter.scan && !filter.any) {
    const TagId want = filter.want;
    while (j < n && e[j].depth > top && e[j].key != want &&
           e[j].key != NavIndex::kDownBorderKey) {
      ++j;
    }
  }
  const std::uint64_t passed = j - from - 1;  // entries the filter refused
  if (j < n && e[j].depth > top) {
    const bool crossing = e[j].key == NavIndex::kDownBorderKey;
    NAVPATH_DCHECK(view_.page().IsLive(e[j].slot));
    NAVPATH_DCHECK(
        crossing ? view_.page().KindOf(e[j].slot) == RecordKind::kBorderDown
                 : view_.page().KindOf(e[j].slot) == RecordKind::kCore &&
                       view_.TagOf(e[j].slot) == e[j].key);
    tally->hops += 2 * (j - from) + e[from].depth - e[j].depth;
    if (filter.scan) tally->tests += passed + (crossing ? 0 : 1);
    mode_ = Mode::kPreorder;
    current_ = e[j].slot;
    *out = NavEntry{e[j].slot, crossing};
    return true;
  }
  tally->hops += 2 * passed + e[from].depth - top;
  if (filter.scan) tally->tests += passed;
  return false;
}

const NavIndex& ClusterView::UnpooledIndex() const {
  static thread_local NavIndex index;
  index.Build(page_.bytes(), page_.page_size());
  return index;
}

}  // namespace navpath
