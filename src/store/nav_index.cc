#include "store/nav_index.h"

#include "store/tree_page.h"

namespace navpath {

void NavIndex::Build(const std::byte* data, std::size_t page_size) {
  const TreePage page = TreePage::ReadOnly(data, page_size);
  const std::size_t n = page.slot_count();

  // Pass 1: read every slot once. `chain`: the record may sit in a child
  // chain (a core record, or a down-border); `root`: it starts a fragment
  // (an up-border, or a core record without a parent). A down-border's
  // first child is dropped: it is a leaf in this page.
  struct Decoded {
    SlotId first_child = kInvalidSlot;
    SlotId next_sibling = kInvalidSlot;
    TagId key = 0;
    bool chain = false;
    bool root = false;
  };
  std::vector<Decoded> decoded(n);
  std::size_t records = 0;  // tree records, an upper bound on the entries
  for (std::size_t s = 0; s < n; ++s) {
    TreePage::CheckedRecord rec;
    if (!page.ReadChecked(static_cast<SlotId>(s), &rec)) continue;
    Decoded& d = decoded[s];
    d.next_sibling = rec.next_sibling;
    switch (rec.kind) {
      case RecordKind::kCore:
        // A tag equal to a marker exists on no well-formed page.
        if (rec.tag >= kUpBorderKey) break;
        d.first_child = rec.first_child;
        d.key = rec.tag;
        d.chain = true;
        d.root = rec.parent == kInvalidSlot;
        break;
      case RecordKind::kBorderDown:
        d.key = kDownBorderKey;
        d.chain = true;
        break;
      case RecordKind::kBorderUp:
        d.first_child = rec.first_child;
        d.key = kUpBorderKey;
        d.root = true;
        break;
      case RecordKind::kAttribute:
        break;
    }
    records += d.chain || d.root;
  }

  // Pass 2: lay each fragment out in preorder. `path` holds the placed
  // records whose child chains are still being listed; a chain ends at
  // the first link that names no placeable record.
  entries_.clear();
  entries_.reserve(records);
  positions_.assign(n, kNoPosition);
  std::vector<SlotId> path;
  auto place = [&](SlotId s) {
    positions_[s] = static_cast<std::uint16_t>(entries_.size());
    entries_.push_back(
        Entry{decoded[s].key, static_cast<std::uint16_t>(path.size()), s});
    path.push_back(s);
  };
  for (std::size_t r = 0; r < n; ++r) {
    if (!decoded[r].root || positions_[r] != kNoPosition) continue;
    place(static_cast<SlotId>(r));
    SlotId next = decoded[r].first_child;
    for (;;) {
      if (next < n && decoded[next].chain &&
          positions_[next] == kNoPosition) {
        place(next);
        next = decoded[next].first_child;
        continue;
      }
      const SlotId done = path.back();
      path.pop_back();
      if (path.empty()) break;
      next = decoded[done].next_sibling;
    }
  }
}

const NavIndex& NavIndexCache::Rebuild(PageId page, std::uint64_t stamp,
                                       const std::byte* data,
                                       std::size_t page_size) {
  if (page >= images_.size()) {
    images_.resize(static_cast<std::size_t>(page) + 1);
  }
  Image& image = images_[page];
  image.index.Build(data, page_size);
  image.generation = stamp;
  ++builds_;
  return image.index;
}

}  // namespace navpath
