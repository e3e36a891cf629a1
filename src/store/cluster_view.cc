#include "store/cluster_view.h"

namespace navpath {

AxisCursor::AxisCursor(const ClusterView& view, Axis axis, SlotId origin)
    : view_(view), axis_(axis), origin_(origin) {
  const RecordKind k = view_.KindOf(origin);
  switch (axis) {
    case Axis::kSelf:
      if (k == RecordKind::kCore || k == RecordKind::kAttribute) {
        mode_ = Mode::kEmitSelf;
        after_self_ = Mode::kDone;
      }
      break;
    case Axis::kAttribute:
      if (k == RecordKind::kCore) {
        mode_ = Mode::kAttrChain;
        current_ = view_.FirstAttrOf(origin);
      }
      break;
    case Axis::kChild:
      if (k == RecordKind::kCore || k == RecordKind::kBorderUp) {
        mode_ = Mode::kChainForward;
        current_ = view_.FirstChildOf(origin);
      }
      break;
    case Axis::kFollowingSibling:
      if (k == RecordKind::kBorderUp) {
        // A crossing along the sibling chain arrived here: the border's
        // children are the chain's continuation.
        mode_ = Mode::kChainForward;
        current_ = view_.FirstChildOf(origin);
      } else if (k != RecordKind::kAttribute) {
        mode_ = Mode::kChainForward;
        current_ = view_.NextSiblingOf(origin);
      }
      break;
    case Axis::kPrecedingSibling:
      if (k == RecordKind::kBorderUp) {
        mode_ = Mode::kChainReverse;
        current_ = view_.LastChildOf(origin);
      } else if (k != RecordKind::kAttribute) {
        mode_ = Mode::kChainReverse;
        current_ = view_.PrevSiblingOf(origin);
      }
      break;
    case Axis::kParent:
      if (k == RecordKind::kCore || k == RecordKind::kBorderDown ||
          k == RecordKind::kAttribute) {
        mode_ = Mode::kUpSingle;
        current_ = view_.ParentOf(origin);
      }
      break;
    case Axis::kAncestor:
      if (k == RecordKind::kCore || k == RecordKind::kBorderDown ||
          k == RecordKind::kAttribute) {
        mode_ = Mode::kUpWalk;
        current_ = view_.ParentOf(origin);
      }
      break;
    case Axis::kAncestorOrSelf:
      if (k == RecordKind::kCore || k == RecordKind::kAttribute) {
        mode_ = Mode::kEmitSelf;
        after_self_ = Mode::kUpWalk;
        current_ = view_.ParentOf(origin);
      } else if (k == RecordKind::kBorderDown) {
        // "self" was already produced in the cluster the step came from.
        mode_ = Mode::kUpWalk;
        current_ = view_.ParentOf(origin);
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
        after_self_ = Mode::kDone;
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
    if (Takes(filter, origin_, false, tally)) {
      *out = NavEntry{origin_, false};
      return true;
    }
  }
  switch (mode_) {
    case Mode::kDone:
    case Mode::kEmitSelf:  // never follows itself
      return false;
    case Mode::kChainForward:
      return WalkChain(filter, /*forward=*/true, tally, out);
    case Mode::kChainReverse:
      return WalkChain(filter, /*forward=*/false, tally, out);
    case Mode::kUpSingle:
      return WalkUp(filter, /*single=*/true, tally, out);
    case Mode::kUpWalk:
      return WalkUp(filter, /*single=*/false, tally, out);
    case Mode::kPreorder:
      return ScanPreorder(filter, tally, out);
    case Mode::kAttrChain:
      return WalkAttrChain(filter, tally, out);
  }
  return false;
}

bool AxisCursor::WalkAttrChain(const Filter& filter, Tally* tally,
                               NavEntry* out) {
  const ClusterView view = view_;
  SlotId s = current_;
  while (s != kInvalidSlot) {
    ++tally->hops;
    NAVPATH_DCHECK(view.KindOf(s) == RecordKind::kAttribute);
    const SlotId at = s;
    s = view.NextSiblingOf(at);
    if (Takes(filter, at, false, tally)) {
      current_ = s;
      *out = NavEntry{at, false};
      return true;
    }
  }
  mode_ = Mode::kDone;
  return false;
}

bool AxisCursor::WalkChain(const Filter& filter, bool forward, Tally* tally,
                           NavEntry* out) {
  const ClusterView view = view_;
  const SlotId origin = origin_;
  SlotId s = current_;
  while (s != kInvalidSlot && s != origin) {
    ++tally->hops;
    const RecordKind k = view.KindOf(s);
    if (k == RecordKind::kCore || k == RecordKind::kBorderDown) {
      const SlotId at = s;
      const bool crossing = k == RecordKind::kBorderDown;
      s = forward ? view.NextSiblingOf(at) : view.PrevSiblingOf(at);
      if (Takes(filter, at, crossing, tally)) {
        current_ = s;
        *out = NavEntry{at, crossing};
        return true;
      }
      continue;
    }
    // Attributes never appear in child chains.
    NAVPATH_DCHECK(k == RecordKind::kBorderUp);
    // Chain terminal. For sibling axes the chain logically continues in
    // the partner cluster; for the child axis the parent border is not a
    // child, so the enumeration simply ends.
    if (k == RecordKind::kBorderUp &&
        (axis_ == Axis::kFollowingSibling ||
         axis_ == Axis::kPrecedingSibling) &&
        Takes(filter, s, true, tally)) {
      mode_ = Mode::kDone;
      *out = NavEntry{s, true};
      return true;
    }
    break;
  }
  mode_ = Mode::kDone;
  return false;
}

bool AxisCursor::WalkUp(const Filter& filter, bool single, Tally* tally,
                        NavEntry* out) {
  const ClusterView view = view_;
  SlotId s = current_;
  while (s != kInvalidSlot) {
    ++tally->hops;
    const RecordKind k = view.KindOf(s);
    if (k == RecordKind::kBorderUp) {
      // The ancestor chain leaves the cluster here.
      if (Takes(filter, s, true, tally)) {
        mode_ = Mode::kDone;
        *out = NavEntry{s, true};
        return true;
      }
      break;
    }
    NAVPATH_DCHECK(k == RecordKind::kCore);
    const SlotId at = s;
    s = single ? kInvalidSlot : view.ParentOf(at);
    if (Takes(filter, at, false, tally)) {
      current_ = s;  // kInvalidSlot after a parent step: the next call ends
      *out = NavEntry{at, false};
      return true;
    }
  }
  mode_ = Mode::kDone;
  return false;
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
    NAVPATH_DCHECK(view_.IsLive(e[j].slot));
    NAVPATH_DCHECK(crossing
                       ? view_.KindOf(e[j].slot) == RecordKind::kBorderDown
                       : view_.KindOf(e[j].slot) == RecordKind::kCore &&
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
