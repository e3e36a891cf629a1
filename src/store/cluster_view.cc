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
        mode_ = Mode::kDfs;
        current_ = origin;
      }
      break;
    case Axis::kDescendantOrSelf:
      if (k == RecordKind::kCore) {
        mode_ = Mode::kEmitSelf;
        after_self_ = Mode::kDfs;
        current_ = origin;
      } else if (k == RecordKind::kBorderUp) {
        mode_ = Mode::kDfs;
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
  const bool found = Advance(
      [](SlotId, bool, Tally*) { return true; }, &tally, out);
  view_.ChargeNavigation(tally.hops, tally.tests);
  return found;
}

bool AxisCursor::Scan(std::optional<TagId> tag, NavEntry* out) {
  const bool any = !tag.has_value();
  const TagId want = tag.value_or(0);
  Tally tally;
  const bool found = Advance(
      [this, any, want](SlotId slot, bool crossing, Tally* t) {
        if (crossing) return true;
        ++t->tests;
        return any || view_.TagOf(slot) == want;
      },
      &tally, out);
  view_.ChargeNavigation(tally.hops, tally.tests);
  return found;
}

template <typename Accept>
bool AxisCursor::Advance(const Accept& accept, Tally* tally, NavEntry* out) {
  if (mode_ == Mode::kEmitSelf) {
    mode_ = after_self_;
    ++tally->hops;
    if (accept(origin_, false, tally)) {
      *out = NavEntry{origin_, false};
      return true;
    }
  }
  switch (mode_) {
    case Mode::kDone:
    case Mode::kEmitSelf:  // never follows itself
      return false;
    case Mode::kChainForward:
      return WalkChain(accept, /*forward=*/true, tally, out);
    case Mode::kChainReverse:
      return WalkChain(accept, /*forward=*/false, tally, out);
    case Mode::kUpSingle:
      return WalkUp(accept, /*single=*/true, tally, out);
    case Mode::kUpWalk:
      return WalkUp(accept, /*single=*/false, tally, out);
    case Mode::kDfs:
      return WalkDfs(accept, tally, out);
    case Mode::kAttrChain:
      return WalkAttrChain(accept, tally, out);
  }
  return false;
}

template <typename Accept>
bool AxisCursor::WalkAttrChain(const Accept& accept, Tally* tally,
                               NavEntry* out) {
  const ClusterView view = view_;
  SlotId s = current_;
  while (s != kInvalidSlot) {
    ++tally->hops;
    NAVPATH_DCHECK(view.KindOf(s) == RecordKind::kAttribute);
    const SlotId at = s;
    s = view.NextSiblingOf(at);
    if (accept(at, false, tally)) {
      current_ = s;
      *out = NavEntry{at, false};
      return true;
    }
  }
  mode_ = Mode::kDone;
  return false;
}

template <typename Accept>
bool AxisCursor::WalkChain(const Accept& accept, bool forward, Tally* tally,
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
      if (accept(at, crossing, tally)) {
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
        accept(s, true, tally)) {
      mode_ = Mode::kDone;
      *out = NavEntry{s, true};
      return true;
    }
    break;
  }
  mode_ = Mode::kDone;
  return false;
}

template <typename Accept>
bool AxisCursor::WalkUp(const Accept& accept, bool single, Tally* tally,
                        NavEntry* out) {
  const ClusterView view = view_;
  SlotId s = current_;
  while (s != kInvalidSlot) {
    ++tally->hops;
    const RecordKind k = view.KindOf(s);
    if (k == RecordKind::kBorderUp) {
      // The ancestor chain leaves the cluster here.
      if (accept(s, true, tally)) {
        mode_ = Mode::kDone;
        *out = NavEntry{s, true};
        return true;
      }
      break;
    }
    NAVPATH_DCHECK(k == RecordKind::kCore);
    const SlotId at = s;
    s = single ? kInvalidSlot : view.ParentOf(at);
    if (accept(at, false, tally)) {
      current_ = s;  // kInvalidSlot after a parent step: the next call ends
      *out = NavEntry{at, false};
      return true;
    }
  }
  mode_ = Mode::kDone;
  return false;
}

template <typename Accept>
bool AxisCursor::WalkDfs(const Accept& accept, Tally* tally, NavEntry* out) {
  const ClusterView view = view_;
  const SlotId origin = origin_;
  SlotId cur = current_;
  // Down-borders are leaves within this cluster.
  bool leaf = view.KindOf(cur) == RecordKind::kBorderDown;
  for (;;) {
    // Descend if possible.
    SlotId next = leaf ? kInvalidSlot : view.FirstChildOf(cur);
    if (next == kInvalidSlot) {
      // Move to the next sibling, climbing when chains end. Chains of a
      // fragment root's children terminate at the up-border (== origin
      // when resuming); interior chains terminate with kInvalidSlot.
      for (;;) {
        if (cur == origin) {
          mode_ = Mode::kDone;
          return false;
        }
        const SlotId ns = view.NextSiblingOf(cur);
        ++tally->hops;
        if (ns == kInvalidSlot || ns == origin ||
            view.KindOf(ns) == RecordKind::kBorderUp) {
          cur = view.ParentOf(cur);
          continue;
        }
        next = ns;
        break;
      }
    }
    ++tally->hops;
    cur = next;
    leaf = view.KindOf(cur) == RecordKind::kBorderDown;
    if (accept(cur, leaf, tally)) {
      current_ = cur;
      *out = NavEntry{cur, leaf};
      return true;
    }
  }
}

}  // namespace navpath
