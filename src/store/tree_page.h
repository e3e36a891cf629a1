// On-page storage format for clustered tree fragments (Sec. 3.2-3.4).
//
// A page is a slotted container of fixed-prefix records. Three record
// kinds exist:
//   * core records     — logical document nodes (tag, order key, text),
//   * down-borders     — a child-position proxy for an edge that leaves
//                        the cluster downwards,
//   * up-borders       — the parent proxy at the root of a fragment whose
//                        logical parent lives in another cluster.
// Border records store the NodeID of their partner border on the opposite
// side of the crossing (the paper's target(x), Sec. 3.4).
//
// Sibling chains of a fragment-root's children terminate *at the
// up-border* on both ends, so that sibling navigation can resume across
// the crossing in either direction. Chains below interior core nodes
// terminate with kInvalidSlot.
//
// Page layout:
//   [u16 slot_count][u16 record_start][slot dir: u16 offsets...]
//   ... free space ...
//   [records packed towards the end of the page]
#ifndef NAVPATH_STORE_TREE_PAGE_H_
#define NAVPATH_STORE_TREE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/macros.h"
#include "common/status.h"
#include "store/node_id.h"
#include "xml/tag_registry.h"

namespace navpath {

enum class RecordKind : std::uint8_t {
  kCore = 0,
  kBorderDown = 1,
  kBorderUp = 2,
  /// Attribute of a core element: chained from the element's first_attr
  /// link via next_sibling; never part of the child chain, never behind a
  /// border (attributes are co-located with their element).
  kAttribute = 3,
};

/// Read/write view over one tree page. Does not own the bytes and charges
/// no simulation cost (cost accounting lives in ClusterView).
class TreePage {
 public:
  // Record geometry (bytes).
  static constexpr std::size_t kHeaderBytes = 4;
  static constexpr std::size_t kSlotEntryBytes = 2;
  // prefix(10) + tag(4) + order(8) + first_attr(2) + text_len(2)
  static constexpr std::size_t kCoreRecordBase = 26;  // also attributes
  static constexpr std::size_t kBorderRecordBytes = 18;
  // Page sizes the layout can address: offsets, including record_start ==
  // page_size on an empty page, are 16-bit.
  static constexpr std::size_t kMinPageSize = 64;
  static constexpr std::size_t kMaxPageSize = 0xFFFF;

  TreePage(std::byte* data, std::size_t page_size)
      : data_(data), page_size_(page_size) {}

  /// A view of bytes the caller may only read (a page guard's data()):
  /// the setters cannot be called on it.
  static const TreePage ReadOnly(const std::byte* data,
                                 std::size_t page_size) {
    return TreePage(const_cast<std::byte*>(data), page_size);
  }

  /// Formats an empty page.
  static void Initialize(std::byte* data, std::size_t page_size);

  /// Space one core record with `text_len` bytes of text consumes,
  /// including its slot directory entry.
  static std::size_t CoreRecordSpace(std::size_t text_len) {
    return kCoreRecordBase + text_len + kSlotEntryBytes;
  }
  static std::size_t BorderRecordSpace() {
    return kBorderRecordBytes + kSlotEntryBytes;
  }

  const std::byte* bytes() const { return data_; }
  std::size_t page_size() const { return page_size_; }
  std::uint16_t slot_count() const { return LoadU16(0); }
  std::size_t FreeBytes() const;

  /// Appends records. Fail with ResourceExhausted when the page is full.
  Result<SlotId> AddCoreRecord(TagId tag, std::uint64_t order,
                               std::string_view text);
  Result<SlotId> AddBorderRecord(RecordKind kind);
  /// An attribute record (same layout as a core record; `name` in the
  /// tag field, the value as text). Caller links it into the owning
  /// element's attribute chain.
  Result<SlotId> AddAttributeRecord(TagId name, std::uint64_t order,
                                    std::string_view value);

  // --- Record removal (updates) ----------------------------------------

  /// True unless the slot was removed. Dead slots keep their directory
  /// entry (slot ids are stable — border partners reference them) but
  /// their bytes are reclaimed by Compact().
  bool IsLive(SlotId slot) const {
    NAVPATH_DCHECK(slot < slot_count());
    return LoadU16(kHeaderBytes + slot * kSlotEntryBytes) != 0;
  }

  /// Marks a record dead. The caller is responsible for unlinking it from
  /// sibling/parent chains first. Space returns after Compact().
  void RemoveRecord(SlotId slot);

  /// Repacks live records to reclaim the space of removed ones.
  void Compact();

  /// Bytes a record currently occupies (for accounting).
  std::size_t RecordBytes(SlotId slot) const;

  // Record field accessors. All slots must be < slot_count().
  RecordKind KindOf(SlotId slot) const {
    return static_cast<RecordKind>(LoadU8(RecordOffset(slot)));
  }
  bool IsBorder(SlotId slot) const {
    const RecordKind k = KindOf(slot);
    return k == RecordKind::kBorderDown || k == RecordKind::kBorderUp;
  }

  SlotId ParentOf(SlotId slot) const { return LoadU16(RecordOffset(slot) + 2); }
  SlotId FirstChildOf(SlotId slot) const {
    return LoadU16(RecordOffset(slot) + 4);
  }
  SlotId NextSiblingOf(SlotId slot) const {
    return LoadU16(RecordOffset(slot) + 6);
  }
  SlotId PrevSiblingOf(SlotId slot) const {
    return LoadU16(RecordOffset(slot) + 8);
  }

  void SetParent(SlotId slot, SlotId v) { StoreU16(RecordOffset(slot) + 2, v); }
  void SetFirstChild(SlotId slot, SlotId v) {
    StoreU16(RecordOffset(slot) + 4, v);
  }
  void SetNextSibling(SlotId slot, SlotId v) {
    StoreU16(RecordOffset(slot) + 6, v);
  }
  void SetPrevSibling(SlotId slot, SlotId v) {
    StoreU16(RecordOffset(slot) + 8, v);
  }

  // Core/attribute fields (identical layout for both kinds).
  TagId TagOf(SlotId slot) const {
    NAVPATH_DCHECK(!IsBorder(slot));
    return LoadU32(RecordOffset(slot) + 10);
  }
  std::uint64_t OrderOf(SlotId slot) const {
    NAVPATH_DCHECK(!IsBorder(slot));
    return LoadU64(RecordOffset(slot) + 14);
  }
  /// Rewrites a record's order key in place (gap redistribution).
  void SetOrder(SlotId slot, std::uint64_t order) {
    NAVPATH_DCHECK(!IsBorder(slot));
    StoreU64(RecordOffset(slot) + 14, order);
  }
  /// First attribute of a core element (kInvalidSlot when none).
  SlotId FirstAttrOf(SlotId slot) const {
    NAVPATH_DCHECK(!IsBorder(slot));
    return LoadU16(RecordOffset(slot) + 22);
  }
  void SetFirstAttr(SlotId slot, SlotId v) {
    NAVPATH_DCHECK(!IsBorder(slot));
    StoreU16(RecordOffset(slot) + 22, v);
  }
  std::string_view TextOf(SlotId slot) const;

  // Border-only fields.
  NodeID PartnerOf(SlotId slot) const {
    NAVPATH_DCHECK(IsBorder(slot));
    const std::size_t off = RecordOffset(slot);
    return NodeID{LoadU32(off + 10), LoadU16(off + 14)};
  }
  void SetPartner(SlotId slot, NodeID partner) {
    NAVPATH_DCHECK(IsBorder(slot));
    const std::size_t off = RecordOffset(slot);
    StoreU32(off + 10, partner.page);
    StoreU16(off + 14, partner.slot);
  }
  /// Last child of an up-border (needed to resume preceding-sibling
  /// navigation across a crossing in reverse order).
  SlotId LastChildOf(SlotId slot) const {
    NAVPATH_DCHECK(IsBorder(slot));
    return LoadU16(RecordOffset(slot) + 16);
  }
  void SetLastChild(SlotId slot, SlotId v) {
    NAVPATH_DCHECK(IsBorder(slot));
    StoreU16(RecordOffset(slot) + 16, v);
  }

  /// A record's kind, links and tag, read through offsets checked against
  /// the page size.
  struct CheckedRecord {
    RecordKind kind;
    SlotId parent;
    SlotId first_child;
    SlotId next_sibling;
    SlotId prev_sibling;
    SlotId last_child;  // a border's; kInvalidSlot otherwise
    TagId tag;          // 0 for a border
    SlotId first_attr;  // kInvalidSlot for a border
  };
  /// Fills `out` for readers that must survive any byte pattern. False if
  /// `slot` is dead, past the slot count, or its directory entry or record
  /// lies outside the page, the record's kind is unknown, or a core or
  /// attribute record's text runs past the page. So every field of a
  /// record it accepts, text included, lies inside the page. Inline: the
  /// axis walks read every record they arrive at through it.
  bool ReadChecked(SlotId slot, CheckedRecord* out) const {
    const std::size_t entry =
        kHeaderBytes + std::size_t{slot} * kSlotEntryBytes;
    if (slot >= slot_count() || entry + kSlotEntryBytes > page_size_) {
      return false;
    }
    const std::size_t off = LoadU16(entry);
    if (off == 0 || off + kBorderRecordBytes > page_size_) return false;
    out->kind = static_cast<RecordKind>(LoadU8(off));
    out->parent = LoadU16(off + 2);
    out->first_child = LoadU16(off + 4);
    out->next_sibling = LoadU16(off + 6);
    out->prev_sibling = LoadU16(off + 8);
    switch (out->kind) {
      case RecordKind::kBorderDown:
      case RecordKind::kBorderUp:
        out->last_child = LoadU16(off + 16);
        out->tag = 0;
        out->first_attr = kInvalidSlot;
        return true;
      case RecordKind::kCore:
      case RecordKind::kAttribute:
        if (off + kCoreRecordBase > page_size_ ||
            off + kCoreRecordBase + LoadU16(off + 24) > page_size_) {
          return false;
        }
        out->last_child = kInvalidSlot;
        out->tag = LoadU32(off + 10);
        out->first_attr = LoadU16(off + 22);
        return true;
    }
    return false;
  }

  /// Validates structural invariants of the page (for tests/fsck):
  /// in-bounds offsets, link symmetry, border field sanity.
  Status Validate() const;

 private:
  std::size_t RecordOffset(SlotId slot) const {
    NAVPATH_DCHECK(slot < slot_count());
    return LoadU16(kHeaderBytes + slot * kSlotEntryBytes);
  }
  std::size_t record_start() const { return LoadU16(2); }

  Result<SlotId> AddRecord(std::size_t record_bytes);
  Result<SlotId> AddNonBorderRecord(RecordKind kind, TagId tag,
                                    std::uint64_t order,
                                    std::string_view text);

  std::uint8_t LoadU8(std::size_t off) const {
    return static_cast<std::uint8_t>(data_[off]);
  }
  std::uint16_t LoadU16(std::size_t off) const {
    std::uint16_t v;
    std::memcpy(&v, data_ + off, sizeof(v));
    return v;
  }
  std::uint32_t LoadU32(std::size_t off) const {
    std::uint32_t v;
    std::memcpy(&v, data_ + off, sizeof(v));
    return v;
  }
  std::uint64_t LoadU64(std::size_t off) const {
    std::uint64_t v;
    std::memcpy(&v, data_ + off, sizeof(v));
    return v;
  }
  void StoreU8(std::size_t off, std::uint8_t v) {
    data_[off] = static_cast<std::byte>(v);
  }
  void StoreU16(std::size_t off, std::uint16_t v) {
    std::memcpy(data_ + off, &v, sizeof(v));
  }
  void StoreU32(std::size_t off, std::uint32_t v) {
    std::memcpy(data_ + off, &v, sizeof(v));
  }
  void StoreU64(std::size_t off, std::uint64_t v) {
    std::memcpy(data_ + off, &v, sizeof(v));
  }

  std::byte* data_;
  std::size_t page_size_;
};

}  // namespace navpath

#endif  // NAVPATH_STORE_TREE_PAGE_H_
