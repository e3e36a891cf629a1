#include "store/update.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "store/cross_cursor.h"
#include "store/tree_page.h"
#include "xml/dom.h"  // kOrderKeyGap

namespace navpath {
namespace {

/// Longest document-order run respaced by one gap redistribution. Bounds
/// the work of a single insert; the run's key range is re-spread evenly,
/// so headroom grows geometrically with repeated redistributions.
constexpr std::size_t kRedistributeRun = 32;

/// Collects `root` and all records of its subtree that live in the same
/// page (down-borders are leaves), in depth-first order.
std::vector<SlotId> CollectLocalSubtree(const TreePage& page, SlotId root) {
  std::vector<SlotId> out;
  std::vector<SlotId> stack{root};
  while (!stack.empty()) {
    const SlotId s = stack.back();
    stack.pop_back();
    out.push_back(s);
    // A local subtree can never exceed the page's record count; more
    // means a corrupted (cyclic) chain.
    NAVPATH_CHECK_MSG(out.size() <= page.slot_count(),
                      "cyclic sibling chain detected");
    const RecordKind kind = page.KindOf(s);
    if (kind == RecordKind::kBorderDown || kind == RecordKind::kAttribute) {
      continue;
    }
    if (kind == RecordKind::kCore) {
      for (SlotId a = page.FirstAttrOf(s); a != kInvalidSlot;
           a = page.NextSiblingOf(a)) {
        out.push_back(a);
      }
    }
    // Children chains below interior cores terminate with kInvalidSlot;
    // a fragment root's (up-border's) chain loops back to the root itself.
    std::vector<SlotId> children;
    for (SlotId c = page.FirstChildOf(s); c != kInvalidSlot && c != s;
         c = page.NextSiblingOf(c)) {
      children.push_back(c);
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

}  // namespace

Result<PageGuard> DocumentUpdater::FixPage(PageId id) {
  if (io_ != nullptr) return io_->FixMutable(id);
  return db_->buffer()->Fix(id);
}

CrossClusterCursor DocumentUpdater::MakeCursor() {
  if (io_ == nullptr) return CrossClusterCursor(db_);
  return CrossClusterCursor(db_, io_->translator(),
                            [io = io_](PageId p) { io->NoteReadDependency(p); });
}

void DocumentUpdater::NoteStructuralChange() {
  if (io_ == nullptr) {
    db_->InvalidateSummary();
  } else {
    structural_change_ = true;
  }
}

Result<PageId> DocumentUpdater::AppendPage() {
  PageId id;
  if (io_ == nullptr) {
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, db_->buffer()->NewPage());
    TreePage::Initialize(guard.mutable_data(), db_->options().page_size);
    guard.MarkDirty();
    id = guard.page_id();
  } else {
    NAVPATH_ASSIGN_OR_RETURN(id, io_->AppendLogicalPage());
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, io_->FixMutable(id));
    TreePage::Initialize(guard.mutable_data(), db_->options().page_size);
    guard.MarkDirty();
  }
  doc_->last_page = std::max(doc_->last_page, id);
  ++doc_->pages;
  return id;
}

Result<NodeID> DocumentUpdater::UnlinkChainElement(PageGuard* guard,
                                                   PageId logical,
                                                   SlotId slot) {
  TreePage page(guard->mutable_data(), db_->options().page_size);
  const SlotId ps = page.ParentOf(slot);
  NAVPATH_CHECK(ps != kInvalidSlot);
  const bool up = page.KindOf(ps) == RecordKind::kBorderUp;
  const SlotId prev = page.PrevSiblingOf(slot);
  const SlotId next = page.NextSiblingOf(slot);
  const bool prev_is_sibling =
      prev != kInvalidSlot && !(up && prev == ps);
  const bool next_is_sibling =
      next != kInvalidSlot && !(up && next == ps);

  if (prev_is_sibling) {
    page.SetNextSibling(prev, next);
  } else {
    page.SetFirstChild(ps, next_is_sibling ? next : kInvalidSlot);
  }
  if (next_is_sibling) {
    page.SetPrevSibling(next, prev);
  } else if (up) {
    page.SetLastChild(ps, prev_is_sibling ? prev : kInvalidSlot);
  }
  guard->MarkDirty();
  if (up && page.FirstChildOf(ps) == kInvalidSlot) {
    return NodeID{logical, ps};  // fragment emptied
  }
  return kInvalidNodeID;
}

Status DocumentUpdater::CollectDeleteDeltas(NodeID node) {
  // Root-to-node path of the subtree root; descendants extend it.
  NAVPATH_ASSIGN_OR_RETURN(std::vector<TagId> base, TagPathOf(node));
  // Fold repeated paths (an ordered map keeps the emitted delta order
  // deterministic).
  std::map<std::pair<std::vector<TagId>, DomNodeKind>, std::uint64_t> folded;
  CrossClusterCursor cursor = MakeCursor();
  struct Item {
    NodeID id;
    std::vector<TagId> path;
  };
  std::vector<Item> stack;
  stack.push_back(Item{node, std::move(base)});
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    LogicalNode n;
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kAttribute, item.id));
    for (;;) {
      NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&n));
      if (!more) break;
      std::vector<TagId> attr_path = item.path;
      attr_path.push_back(n.tag);
      ++folded[{std::move(attr_path), DomNodeKind::kAttribute}];
    }
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kChild, item.id));
    for (;;) {
      NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&n));
      if (!more) break;
      std::vector<TagId> child_path = item.path;
      child_path.push_back(n.tag);
      stack.push_back(Item{n.id, std::move(child_path)});
    }
    ++folded[{std::move(item.path), DomNodeKind::kElement}];
  }
  for (auto& [key, count] : folded) {
    SummaryDelete del;
    del.tags = key.first;
    del.kind = key.second;
    del.count = count;
    summary_deletes_.push_back(std::move(del));
  }
  return Status::OK();
}

Status DocumentUpdater::DeleteSubtree(NodeID node) {
  if (node == doc_->root) {
    return Status::InvalidArgument("cannot delete the document root");
  }
  {
    // Validate before touching any chain (and before delta collection
    // walks the subtree).
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(node.page));
    const TreePage page =
        TreePage::ReadOnly(guard.data(), db_->options().page_size);
    if (node.slot >= page.slot_count() || !page.IsLive(node.slot) ||
        page.KindOf(node.slot) != RecordKind::kCore) {
      return Status::InvalidArgument("not a live element: " +
                                     node.ToString());
    }
  }
  if (io_ == nullptr) {
    // A stale synopsis would keep reporting the deleted subtree's counts;
    // legacy in-place mode invalidates wholesale.
    NoteStructuralChange();
  } else {
    // Transaction mode maintains the synopsis: fold the subtree into
    // per-path count decrements before the chains are unlinked. Extents
    // keep the (now over-approximate) pages — conservative for sweeps.
    NAVPATH_RETURN_NOT_OK(CollectDeleteDeltas(node));
  }
  std::unordered_set<PageId> touched;
  {
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(node.page));
    // Unlink from the sibling chain; collapse border pairs whose
    // fragments become empty (possibly cascading across clusters).
    NAVPATH_ASSIGN_OR_RETURN(NodeID emptied,
                             UnlinkChainElement(&guard, node.page, node.slot));
    touched.insert(node.page);
    guard.Release();
    while (emptied.valid()) {
      NAVPATH_ASSIGN_OR_RETURN(PageGuard up_guard, FixPage(emptied.page));
      TreePage up_page(up_guard.mutable_data(), db_->options().page_size);
      const NodeID partner = up_page.PartnerOf(emptied.slot);
      up_page.RemoveRecord(emptied.slot);
      up_guard.MarkDirty();
      touched.insert(emptied.page);
      up_guard.Release();

      NAVPATH_ASSIGN_OR_RETURN(PageGuard down_guard, FixPage(partner.page));
      NAVPATH_ASSIGN_OR_RETURN(
          emptied,
          UnlinkChainElement(&down_guard, partner.page, partner.slot));
      TreePage down_page(down_guard.mutable_data(), db_->options().page_size);
      down_page.RemoveRecord(partner.slot);
      down_guard.MarkDirty();
      touched.insert(partner.page);
      --doc_->border_pairs;
    }
  }

  // Remove the subtree's records across every cluster it spans.
  std::vector<NodeID> work{node};
  while (!work.empty()) {
    const NodeID root = work.back();
    work.pop_back();
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(root.page));
    TreePage page(guard.mutable_data(), db_->options().page_size);
    for (const SlotId s : CollectLocalSubtree(page, root.slot)) {
      switch (page.KindOf(s)) {
        case RecordKind::kCore:
          --doc_->core_records;
          break;
        case RecordKind::kAttribute:
          --doc_->attribute_records;
          break;
        case RecordKind::kBorderDown:
          work.push_back(page.PartnerOf(s));
          --doc_->border_pairs;
          break;
        case RecordKind::kBorderUp:
          break;  // the fragment root itself (when root is an up-border)
      }
      page.RemoveRecord(s);
    }
    guard.MarkDirty();
    touched.insert(root.page);
  }

  for (const PageId pid : touched) {
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(pid));
    TreePage page(guard.mutable_data(), db_->options().page_size);
    page.Compact();
    guard.MarkDirty();
  }
  return Status::OK();
}

Result<std::uint64_t> DocumentUpdater::MaxOrderInSubtree(NodeID node) {
  CrossClusterCursor cursor = MakeCursor();
  NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kDescendantOrSelf, node));
  std::uint64_t max_order = 0;
  LogicalNode n;
  for (;;) {
    NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&n));
    if (!more) break;
    max_order = std::max(max_order, n.order);
  }
  return max_order;
}

Result<std::uint64_t> DocumentUpdater::DocOrderSuccessor(
    NodeID node, std::uint64_t fallback, NodeID* succ_id) {
  CrossClusterCursor cursor = MakeCursor();
  NodeID cur = node;
  for (;;) {
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kFollowingSibling, cur));
    LogicalNode n;
    NAVPATH_ASSIGN_OR_RETURN(const bool has_sibling, cursor.Next(&n));
    if (has_sibling) {
      if (succ_id != nullptr) *succ_id = n.id;
      return n.order;
    }
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kParent, cur));
    NAVPATH_ASSIGN_OR_RETURN(const bool has_parent, cursor.Next(&n));
    if (!has_parent) {
      if (succ_id != nullptr) *succ_id = kInvalidNodeID;
      return fallback;  // end of document
    }
    cur = n.id;
  }
}

Result<std::vector<TagId>> DocumentUpdater::TagPathOf(NodeID node) {
  CrossClusterCursor cursor = MakeCursor();
  NAVPATH_ASSIGN_OR_RETURN(LogicalNode cur, cursor.Describe(node));
  std::vector<TagId> tags{cur.tag};
  for (;;) {
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kParent, cur.id));
    LogicalNode up;
    NAVPATH_ASSIGN_OR_RETURN(const bool has_parent, cursor.Next(&up));
    if (!has_parent) break;
    tags.push_back(up.tag);
    cur = up;
  }
  std::reverse(tags.begin(), tags.end());
  return tags;
}

Result<std::uint64_t> DocumentUpdater::RedistributeOrderKeys(
    std::uint64_t pred_order, NodeID succ, std::uint64_t reserve) {
  const std::size_t page_size = db_->options().page_size;
  CrossClusterCursor cursor = MakeCursor();

  // Advances to the next node in document order (first child, else
  // following sibling, else the nearest ancestor's following sibling).
  auto next_in_doc_order = [&](NodeID cur, NodeID* out) -> Result<bool> {
    LogicalNode n;
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kChild, cur));
    NAVPATH_ASSIGN_OR_RETURN(bool has, cursor.Next(&n));
    if (has) {
      *out = n.id;
      return true;
    }
    NodeID a = cur;
    for (;;) {
      NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kFollowingSibling, a));
      NAVPATH_ASSIGN_OR_RETURN(has, cursor.Next(&n));
      if (has) {
        *out = n.id;
        return true;
      }
      NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kParent, a));
      NAVPATH_ASSIGN_OR_RETURN(has, cursor.Next(&n));
      if (!has) return false;
      a = n.id;
    }
  };

  // Collect the bounded forward run and the key bound beyond it. The run
  // is a contiguous document-order (preorder) segment, so respacing it
  // monotonically inside (pred_order, bound) preserves global order.
  struct RunNode {
    NodeID id;
    std::uint64_t attrs = 0;
  };
  std::vector<RunNode> run;
  std::uint64_t total_units = reserve;  // key slots the new insert needs
  std::uint64_t last_old_order = pred_order;
  std::uint64_t bound = 0;
  bool bounded = false;
  NodeID cur = succ;
  for (;;) {
    NAVPATH_ASSIGN_OR_RETURN(const LogicalNode info, cursor.Describe(cur));
    if (run.size() == kRedistributeRun) {
      bound = info.order;  // first node left untouched
      bounded = true;
      break;
    }
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(cur.page));
    const TreePage page = TreePage::ReadOnly(guard.data(), page_size);
    std::uint64_t attrs = 0;
    for (SlotId a = page.FirstAttrOf(cur.slot); a != kInvalidSlot;
         a = page.NextSiblingOf(a)) {
      ++attrs;
    }
    guard.Release();
    run.push_back(RunNode{cur, attrs});
    total_units += 1 + attrs;
    last_old_order = info.order + attrs;
    NodeID next;
    NAVPATH_ASSIGN_OR_RETURN(const bool more, next_in_doc_order(cur, &next));
    if (!more) break;
    cur = next;
  }
  if (!bounded) {
    // The run reaches the document tail: nothing above constrains the
    // keys, so extend the range by a fresh import-sized gap.
    bound = last_old_order + 2 * kOrderKeyGap;
  }
  if (bound <= pred_order ||
      bound - pred_order <= total_units + run.size()) {
    return Status::ResourceExhausted(
        "order keys exhausted between neighbors; re-import to renumber");
  }

  // Even respacing: every node (and the pending insert) gets its key
  // slots plus `slack` headroom; slack >= 1 by the check above.
  const std::uint64_t slack =
      (bound - pred_order - total_units) / (run.size() + 1);
  std::uint64_t key = pred_order + reserve + slack;
  const std::uint64_t new_succ_order = key;
  for (const RunNode& rn : run) {
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(rn.id.page));
    TreePage page(guard.mutable_data(), page_size);
    page.SetOrder(rn.id.slot, key);
    std::uint64_t attr_key = key;
    for (SlotId a = page.FirstAttrOf(rn.id.slot); a != kInvalidSlot;
         a = page.NextSiblingOf(a)) {
      page.SetOrder(a, ++attr_key);
    }
    guard.MarkDirty();
    key += 1 + rn.attrs + slack;
  }
  return new_succ_order;
}

Status DocumentUpdater::EvacuateSubtree(PageId pid,
                                        const std::vector<SlotId>& protect,
                                        std::size_t needed_bytes) {
  NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(pid));
  const std::size_t page_size = db_->options().page_size;
  TreePage page(guard.mutable_data(), page_size);
  const std::unordered_set<SlotId> protected_slots(protect.begin(),
                                                   protect.end());

  // Record relocation breaks NodeID identity for the moved subtree. In
  // legacy mode the synopsis extents can no longer be maintained and the
  // whole summary is invalidated; in transaction mode the relocation is a
  // page remap (every record of `pid` that moved now lives on the new
  // page), applied to the committed version's extents.
  if (io_ == nullptr) NoteStructuralChange();

  // Eligibility per chain element: a live core (with its local subtree)
  // or down-border, not the document root, whose local records contain no
  // protected slot. Down-borders can never seed an evacuation (swapping
  // one border for another frees nothing) but ride along inside a run,
  // where the run's single replacement border is already paid for.
  struct Candidate {
    std::vector<SlotId> subtree;
    std::size_t bytes = 0;
  };
  std::unordered_map<SlotId, Candidate> eligible;
  SlotId victim = kInvalidSlot;
  std::size_t victim_bytes = 0;
  for (SlotId s = 0; s < page.slot_count(); ++s) {
    if (!page.IsLive(s)) continue;
    const RecordKind kind = page.KindOf(s);
    if (kind != RecordKind::kCore && kind != RecordKind::kBorderDown) {
      continue;
    }
    if (page.ParentOf(s) == kInvalidSlot) continue;  // document root
    if (protected_slots.count(s) > 0) continue;
    Candidate c;
    c.subtree = kind == RecordKind::kCore ? CollectLocalSubtree(page, s)
                                          : std::vector<SlotId>{s};
    bool ok = true;
    for (const SlotId member : c.subtree) {
      if (protected_slots.count(member) > 0) {
        ok = false;
        break;
      }
      c.bytes += page.RecordBytes(member) + TreePage::kSlotEntryBytes;
    }
    if (!ok) continue;
    if (kind == RecordKind::kCore && c.bytes > victim_bytes) {
      victim = s;
      victim_bytes = c.bytes;
    }
    eligible.emplace(s, std::move(c));
  }
  if (victim == kInvalidSlot) {
    return Status::ResourceExhausted("page full and nothing evacuable: " +
                                     std::to_string(pid));
  }

  // Grow a contiguous sibling run around the victim until evacuating it
  // frees `needed_bytes` beyond the down-border left in its place. A page
  // packed with tiny leaves is the motivating case: no single subtree
  // frees net space there, but a run shares one border pair across all
  // its members.
  const SlotId ps = page.ParentOf(victim);
  const bool up = page.KindOf(ps) == RecordKind::kBorderUp;
  // In a fragment the chain loops back to the up-border; treat that (and
  // a chain end) as "no sibling".
  const auto chain_sibling = [&](SlotId s) {
    return (s == kInvalidSlot || (up && s == ps)) ? kInvalidSlot : s;
  };
  const std::size_t evac_cost =
      TreePage::BorderRecordSpace() + TreePage::kSlotEntryBytes;
  const std::size_t target = needed_bytes + evac_cost;
  SlotId first = victim;
  SlotId last = victim;
  std::size_t freed = victim_bytes;
  while (freed < target) {
    const SlotId n = chain_sibling(page.NextSiblingOf(last));
    if (n == kInvalidSlot || eligible.count(n) == 0) break;
    last = n;
    freed += eligible.at(n).bytes;
  }
  while (freed < target) {
    const SlotId p = chain_sibling(page.PrevSiblingOf(first));
    if (p == kInvalidSlot || eligible.count(p) == 0) break;
    first = p;
    freed += eligible.at(p).bytes;
  }
  if (freed <= evac_cost) {
    return Status::ResourceExhausted("page full and nothing evacuable: " +
                                     std::to_string(pid));
  }
  std::vector<SlotId> run_roots;
  std::vector<SlotId> victim_subtree;
  for (SlotId s = first;; s = page.NextSiblingOf(s)) {
    run_roots.push_back(s);
    const auto& sub = eligible.at(s).subtree;
    victim_subtree.insert(victim_subtree.end(), sub.begin(), sub.end());
    if (s == last) break;
  }

  // Chain context of the run before removal.
  const SlotId prev = page.PrevSiblingOf(first);
  const SlotId next = page.NextSiblingOf(last);

  // Build the new cluster.
  NAVPATH_ASSIGN_OR_RETURN(const PageId new_pid, AppendPage());
  if (io_ != nullptr) {
    summary_remaps_.push_back(SummaryPageRemap{pid, new_pid});
  }
  NAVPATH_ASSIGN_OR_RETURN(PageGuard new_guard, FixPage(new_pid));
  TreePage new_page(new_guard.mutable_data(), page_size);
  NAVPATH_ASSIGN_OR_RETURN(const SlotId up_slot,
                           new_page.AddBorderRecord(RecordKind::kBorderUp));
  std::unordered_map<SlotId, SlotId> remap;
  for (const SlotId s : victim_subtree) {
    SlotId ns;
    switch (page.KindOf(s)) {
      case RecordKind::kCore: {
        NAVPATH_ASSIGN_OR_RETURN(
            ns, new_page.AddCoreRecord(page.TagOf(s), page.OrderOf(s),
                                       page.TextOf(s)));
        break;
      }
      case RecordKind::kAttribute: {
        NAVPATH_ASSIGN_OR_RETURN(
            ns, new_page.AddAttributeRecord(page.TagOf(s), page.OrderOf(s),
                                            page.TextOf(s)));
        break;
      }
      default: {
        NAVPATH_ASSIGN_OR_RETURN(
            ns, new_page.AddBorderRecord(RecordKind::kBorderDown));
        new_page.SetPartner(ns, page.PartnerOf(s));
        break;
      }
    }
    remap[s] = ns;
  }
  // Rewire the copied records; the victim's external links point at the
  // new up-border (it becomes a plain fragment root child).
  auto map_link = [&](SlotId old_link) {
    if (old_link == kInvalidSlot) return kInvalidSlot;
    auto it = remap.find(old_link);
    return it == remap.end() ? up_slot : it->second;
  };
  for (const SlotId s : victim_subtree) {
    const SlotId ns = remap.at(s);
    new_page.SetParent(ns, map_link(page.ParentOf(s)));
    new_page.SetFirstChild(ns, map_link(page.FirstChildOf(s)));
    new_page.SetNextSibling(ns, map_link(page.NextSiblingOf(s)));
    new_page.SetPrevSibling(ns, map_link(page.PrevSiblingOf(s)));
    if (!page.IsBorder(s)) {
      new_page.SetFirstAttr(ns, map_link(page.FirstAttrOf(s)));
    }
  }
  // Sibling links between run roots were remapped above; only the run's
  // outer boundary needs to be folded back onto the up-border.
  const SlotId new_first = remap.at(first);
  const SlotId new_last = remap.at(last);
  new_page.SetFirstChild(up_slot, new_first);
  new_page.SetLastChild(up_slot, new_last);
  for (const SlotId r : run_roots) new_page.SetParent(remap.at(r), up_slot);
  new_page.SetPrevSibling(new_first, up_slot);
  new_page.SetNextSibling(new_last, up_slot);
  new_guard.MarkDirty();

  // Moved down-borders changed address: retarget their partners.
  for (const SlotId s : victim_subtree) {
    if (page.KindOf(s) != RecordKind::kBorderDown) continue;
    const NodeID target = page.PartnerOf(s);
    NAVPATH_ASSIGN_OR_RETURN(PageGuard target_guard, FixPage(target.page));
    TreePage target_page(target_guard.mutable_data(), page_size);
    target_page.SetPartner(target.slot, NodeID{new_pid, remap.at(s)});
    target_guard.MarkDirty();
  }

  // Reclaim the space and leave a border pair at the run's position.
  for (const SlotId s : victim_subtree) page.RemoveRecord(s);
  page.Compact();
  NAVPATH_ASSIGN_OR_RETURN(const SlotId down_slot,
                           page.AddBorderRecord(RecordKind::kBorderDown));
  page.SetPartner(down_slot, NodeID{new_pid, up_slot});
  new_page.SetPartner(up_slot, NodeID{pid, down_slot});
  page.SetParent(down_slot, ps);
  page.SetPrevSibling(down_slot, prev);
  page.SetNextSibling(down_slot, next);
  const bool prev_is_sibling = prev != kInvalidSlot && !(up && prev == ps);
  const bool next_is_sibling = next != kInvalidSlot && !(up && next == ps);
  if (prev_is_sibling) {
    page.SetNextSibling(prev, down_slot);
  } else {
    page.SetFirstChild(ps, down_slot);
  }
  if (next_is_sibling) {
    page.SetPrevSibling(next, down_slot);
  } else if (up) {
    page.SetLastChild(ps, down_slot);
  }
  guard.MarkDirty();
  ++doc_->border_pairs;
  return Status::OK();
}

Result<InsertedNode> DocumentUpdater::InsertElement(
    NodeID parent, NodeID after, TagId tag, std::string_view text,
    const std::vector<AttributeSpec>& attrs) {
  const std::size_t page_size = db_->options().page_size;
  // Without a transaction layer the summary's exact counts and extents no
  // longer describe the store; with one, per-path deltas are reported
  // instead and applied at commit.
  if (io_ == nullptr) db_->InvalidateSummary();
  CrossClusterCursor cursor = MakeCursor();

  // Validate the anchors and find the document-order neighbors.
  NAVPATH_ASSIGN_OR_RETURN(const LogicalNode parent_node,
                           cursor.Describe(parent));
  std::uint64_t pred_order;
  std::uint64_t succ_order;
  NodeID succ_id = kInvalidNodeID;
  if (after.valid()) {
    LogicalNode check;
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kParent, after));
    NAVPATH_ASSIGN_OR_RETURN(const bool has_parent, cursor.Next(&check));
    if (!has_parent || check.id != parent) {
      return Status::InvalidArgument("'after' is not a child of 'parent'");
    }
    NAVPATH_ASSIGN_OR_RETURN(pred_order, MaxOrderInSubtree(after));
    // Successor: the next logical child, else the first node after the
    // whole subtree of `after`.
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kFollowingSibling, after));
    LogicalNode sibling;
    NAVPATH_ASSIGN_OR_RETURN(const bool has_sibling, cursor.Next(&sibling));
    if (has_sibling) {
      succ_order = sibling.order;
      succ_id = sibling.id;
    } else {
      NAVPATH_ASSIGN_OR_RETURN(
          succ_order,
          DocOrderSuccessor(parent, pred_order + 2 * kOrderKeyGap, &succ_id));
    }
  } else {
    pred_order = parent_node.order;
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kChild, parent));
    LogicalNode first_child;
    NAVPATH_ASSIGN_OR_RETURN(const bool has_child, cursor.Next(&first_child));
    if (has_child) {
      succ_order = first_child.order;
      succ_id = first_child.id;
    } else {
      NAVPATH_ASSIGN_OR_RETURN(
          succ_order,
          DocOrderSuccessor(parent, pred_order + 2 * kOrderKeyGap, &succ_id));
    }
  }
  // The element needs one key plus one per attribute, all strictly
  // between the neighbors. When the gap is dry, redistribute the forward
  // run's keys; only a genuinely saturated key range still fails.
  const std::uint64_t reserve = 2 + attrs.size();
  if (succ_order - pred_order < reserve) {
    if (!succ_id.valid()) {
      return Status::ResourceExhausted(
          "order keys exhausted between neighbors; re-import to renumber");
    }
    NAVPATH_ASSIGN_OR_RETURN(
        succ_order, RedistributeOrderKeys(pred_order, succ_id, reserve));
  }
  std::uint64_t order = pred_order + (succ_order - pred_order) / 2;
  if (order + attrs.size() >= succ_order) {
    order = succ_order - attrs.size() - 1;  // > pred_order by the check
  }

  // The root-to-parent tag path, for the summary delta (ancestors are
  // cheaper to read before the chains change).
  std::vector<TagId> path_tags;
  if (io_ != nullptr) {
    NAVPATH_ASSIGN_OR_RETURN(path_tags, TagPathOf(parent));
    path_tags.push_back(tag);
  }

  // The chain position lives in `after`'s page (append) or the parent's
  // page (prepend).
  const PageId pid = after.valid() ? after.page : parent.page;
  const std::size_t text_cap = db_->options().import.text_cap;
  const std::string_view stored_text =
      text.substr(0, std::min(text.size(), text_cap));
  std::size_t attr_space = 0;
  for (const AttributeSpec& attr : attrs) {
    attr_space +=
        TreePage::CoreRecordSpace(std::min(attr.value.size(), text_cap));
  }

  // Writes the attribute chain next to a freshly inserted element.
  auto place_attrs = [&](TreePage page, SlotId element_slot,
                         std::uint64_t element_order) -> Status {
    SlotId prev = kInvalidSlot;
    std::uint64_t attr_order = element_order;
    for (const AttributeSpec& attr : attrs) {
      NAVPATH_ASSIGN_OR_RETURN(
          const SlotId slot,
          page.AddAttributeRecord(
              attr.name, ++attr_order,
              std::string_view(attr.value)
                  .substr(0, std::min(attr.value.size(), text_cap))));
      page.SetParent(slot, element_slot);
      if (prev == kInvalidSlot) {
        page.SetFirstAttr(element_slot, slot);
      } else {
        page.SetNextSibling(prev, slot);
      }
      prev = slot;
      ++doc_->attribute_records;
    }
    return Status::OK();
  };

  for (int attempt = 0; attempt < 2; ++attempt) {
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, FixPage(pid));
    TreePage page(guard.mutable_data(), page_size);

    // Chain context.
    SlotId ps;
    SlotId left;
    SlotId right;
    if (after.valid()) {
      ps = page.ParentOf(after.slot);
      left = after.slot;
      right = page.NextSiblingOf(after.slot);
    } else {
      ps = parent.slot;
      left = kInvalidSlot;
      right = page.FirstChildOf(parent.slot);
    }
    const bool up = page.KindOf(ps) == RecordKind::kBorderUp;
    const bool right_is_sibling =
        right != kInvalidSlot && !(up && right == ps);

    SlotId element_slot = kInvalidSlot;  // the chain element to link
    InsertedNode result;
    result.order = order;
    if (page.FreeBytes() >=
        TreePage::CoreRecordSpace(stored_text.size()) + attr_space) {
      NAVPATH_ASSIGN_OR_RETURN(element_slot,
                               page.AddCoreRecord(tag, order, stored_text));
      NAVPATH_RETURN_NOT_OK(place_attrs(page, element_slot, order));
      result.id = NodeID{pid, element_slot};
      ++doc_->core_records;
    } else if (page.FreeBytes() >= TreePage::BorderRecordSpace()) {
      // New single-element fragment behind a border pair.
      NAVPATH_ASSIGN_OR_RETURN(const PageId new_pid, AppendPage());
      NAVPATH_ASSIGN_OR_RETURN(PageGuard new_guard, FixPage(new_pid));
      TreePage new_page(new_guard.mutable_data(), page_size);
      NAVPATH_ASSIGN_OR_RETURN(
          const SlotId up_slot,
          new_page.AddBorderRecord(RecordKind::kBorderUp));
      NAVPATH_ASSIGN_OR_RETURN(
          const SlotId core_slot,
          new_page.AddCoreRecord(tag, order, stored_text));
      NAVPATH_RETURN_NOT_OK(place_attrs(new_page, core_slot, order));
      new_page.SetFirstChild(up_slot, core_slot);
      new_page.SetLastChild(up_slot, core_slot);
      new_page.SetParent(core_slot, up_slot);
      new_page.SetPrevSibling(core_slot, up_slot);
      new_page.SetNextSibling(core_slot, up_slot);
      NAVPATH_ASSIGN_OR_RETURN(
          element_slot, page.AddBorderRecord(RecordKind::kBorderDown));
      page.SetPartner(element_slot, NodeID{new_pid, up_slot});
      new_page.SetPartner(up_slot, NodeID{pid, element_slot});
      new_guard.MarkDirty();
      result.id = NodeID{new_pid, core_slot};
      ++doc_->core_records;
      ++doc_->border_pairs;
    } else {
      // No room even for a down-border: split the page and retry once.
      if (attempt > 0) {
        return Status::ResourceExhausted("page split did not free space");
      }
      std::vector<SlotId> protect{ps};
      if (after.valid()) protect.push_back(after.slot);
      if (right != kInvalidSlot) protect.push_back(right);
      guard.Release();
      NAVPATH_RETURN_NOT_OK(EvacuateSubtree(
          pid, protect,
          TreePage::CoreRecordSpace(stored_text.size()) + attr_space));
      continue;
    }

    // Link the new chain element between left and right.
    page.SetParent(element_slot, ps);
    if (left != kInvalidSlot) {
      page.SetNextSibling(left, element_slot);
      page.SetPrevSibling(element_slot, left);
    } else {
      page.SetFirstChild(ps, element_slot);
      page.SetPrevSibling(element_slot, up ? ps : kInvalidSlot);
    }
    if (right_is_sibling) {
      page.SetNextSibling(element_slot, right);
      page.SetPrevSibling(right, element_slot);
    } else {
      page.SetNextSibling(element_slot, up ? ps : kInvalidSlot);
      if (up) page.SetLastChild(ps, element_slot);
    }
    guard.MarkDirty();

    if (io_ != nullptr) {
      // Record the delta: the element's path gains one instance on the
      // landing page (plus the chain page holding its down-border — an
      // over-approximation of extents is safe, a gap is not).
      SummaryInsert element_delta;
      element_delta.tags = path_tags;
      element_delta.kind = DomNodeKind::kElement;
      element_delta.pages = {pid, result.id.page};
      summary_inserts_.push_back(std::move(element_delta));
      for (const AttributeSpec& attr : attrs) {
        SummaryInsert attr_delta;
        attr_delta.tags = path_tags;
        attr_delta.tags.push_back(attr.name);
        attr_delta.kind = DomNodeKind::kAttribute;
        attr_delta.pages = {result.id.page};
        summary_inserts_.push_back(std::move(attr_delta));
      }
    }
    return result;
  }
  return Status::ResourceExhausted("insert failed after page split");
}

}  // namespace navpath
