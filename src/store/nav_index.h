// Preorder navigation image of a tree page (host-side, DESIGN.md §3
// "Preorder navigation image").
//
// The descendant axes enumerate a fragment in preorder by following
// first-child and next-sibling links, each through the slot directory
// (Sec. 3.5). NavIndex is that walk done once per page: one packed entry
// per tree record in preorder, carrying the key a scan compares (the
// record's tag, or kDownBorderKey for a down-border), its page-local depth
// (0 at a fragment root) and its slot, plus a slot-to-position table. The
// subtree of the record at position p is the run of entries after p whose
// depth exceeds p's, so AxisCursor finds the next match by scanning keys,
// and derives the hops the link walk would have charged from positions
// and depths alone. No page byte and no simulated number depends on it.
//
// NavIndexCache keeps one image per physical page for a Database, across
// evictions: an image is reused while the page's content generation
// (BufferManager::ContentStamp) is the one it was built at.
#ifndef NAVPATH_STORE_NAV_INDEX_H_
#define NAVPATH_STORE_NAV_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/buffer_manager.h"
#include "store/node_id.h"
#include "xml/tag_registry.h"

namespace navpath {

class NavIndex {
 public:
  struct Entry {
    TagId key;            // the record's tag, or a marker below
    std::uint16_t depth;  // page-local: 0 at a fragment root
    SlotId slot;
  };
  static_assert(sizeof(Entry) == 8);

  /// Key of a down-border: a crossing, and a leaf in this page.
  static constexpr TagId kDownBorderKey = 0xFFFFFFFF;
  /// Key of an up-border. Up-borders are fragment roots (depth 0), so a
  /// scan never returns one; they are only origins.
  static constexpr TagId kUpBorderKey = 0xFFFFFFFE;
  static constexpr std::uint16_t kNoPosition = 0xFFFF;

  /// Rebuilds the image from `page_size` bytes of a tree page, reusing
  /// the capacity already held. Reads each slot once, through offsets
  /// checked against the page size. A link one past the slot count, to a
  /// dead slot, to a slot already placed, or to a record that cannot sit
  /// in a child chain ends its chain, so every byte pattern gives a finite
  /// image that places each slot at most once. On a well-formed page the
  /// image lists exactly the records the link walk visits, in its order.
  void Build(const std::byte* data, std::size_t page_size);

  std::size_t size() const { return entries_.size(); }
  const Entry* entries() const { return entries_.data(); }
  /// Position of `slot`'s entry, or kNoPosition if the slot holds no
  /// placed tree record (dead, an attribute, unreachable).
  std::uint16_t PositionOf(SlotId slot) const {
    return slot < positions_.size() ? positions_[slot] : kNoPosition;
  }
  /// Whether `slot` holds a placed border record, up or down.
  bool IsBorder(SlotId slot) const {
    const std::uint16_t at = PositionOf(slot);
    return at != kNoPosition && entries_[at].key >= kUpBorderKey;
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::uint16_t> positions_;  // by slot
};

/// The preorder images of one Database's pages, by physical page id.
class NavIndexCache {
 public:
  explicit NavIndexCache(const BufferManager* buffer) : buffer_(buffer) {}

  NavIndexCache(const NavIndexCache&) = delete;
  NavIndexCache& operator=(const NavIndexCache&) = delete;

  /// The image of physical page `page`, pinned with its bytes at `data`:
  /// the cached one while the page's content generation is the one it was
  /// built at, else built now. While a guard holding mutable access to
  /// the page is alive every call builds anew.
  const NavIndex& Get(PageId page, const std::byte* data,
                      std::size_t page_size) {
    const std::uint64_t stamp = buffer_->ContentStamp(page);
    if (page < images_.size()) {
      const Image& image = images_[page];
      if (image.generation == stamp &&
          stamp != BufferManager::kUnstableContent) {
        return image.index;
      }
    }
    return Rebuild(page, stamp, data, page_size);
  }

  /// Images built so far (tests and profiles).
  std::uint64_t builds() const { return builds_; }

 private:
  struct Image {
    std::uint64_t generation = BufferManager::kUnstableContent;
    NavIndex index;
  };

  const NavIndex& Rebuild(PageId page, std::uint64_t stamp,
                          const std::byte* data, std::size_t page_size);

  const BufferManager* buffer_;
  std::vector<Image> images_;
  std::uint64_t builds_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_STORE_NAV_INDEX_H_
