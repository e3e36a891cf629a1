#include "store/tree_page.h"

#include <vector>

namespace navpath {

void TreePage::Initialize(std::byte* data, std::size_t page_size) {
  NAVPATH_CHECK(page_size >= kMinPageSize && page_size <= kMaxPageSize);
  TreePage page(data, page_size);
  page.StoreU16(0, 0);  // slot_count
  page.StoreU16(2, static_cast<std::uint16_t>(page_size));  // record_start
}

std::size_t TreePage::FreeBytes() const {
  const std::size_t dir_end =
      kHeaderBytes + slot_count() * kSlotEntryBytes;
  NAVPATH_DCHECK(record_start() >= dir_end);
  return record_start() - dir_end;
}

Result<SlotId> TreePage::AddRecord(std::size_t record_bytes) {
  if (FreeBytes() < record_bytes + kSlotEntryBytes) {
    return Status::ResourceExhausted("page full");
  }
  const std::uint16_t count = slot_count();
  if (count == kInvalidSlot) {
    return Status::ResourceExhausted("slot directory full");
  }
  const std::uint16_t new_start =
      static_cast<std::uint16_t>(record_start() - record_bytes);
  StoreU16(2, new_start);
  StoreU16(kHeaderBytes + count * kSlotEntryBytes, new_start);
  StoreU16(0, static_cast<std::uint16_t>(count + 1));
  return static_cast<SlotId>(count);
}

Result<SlotId> TreePage::AddNonBorderRecord(RecordKind kind, TagId tag,
                                            std::uint64_t order,
                                            std::string_view text) {
  NAVPATH_ASSIGN_OR_RETURN(const SlotId slot,
                           AddRecord(kCoreRecordBase + text.size()));
  const std::size_t off = RecordOffset(slot);
  StoreU8(off, static_cast<std::uint8_t>(kind));
  StoreU8(off + 1, 0);
  SetParent(slot, kInvalidSlot);
  SetFirstChild(slot, kInvalidSlot);
  SetNextSibling(slot, kInvalidSlot);
  SetPrevSibling(slot, kInvalidSlot);
  StoreU32(off + 10, tag);
  StoreU64(off + 14, order);
  StoreU16(off + 22, kInvalidSlot);  // first_attr
  StoreU16(off + 24, static_cast<std::uint16_t>(text.size()));
  if (!text.empty()) {
    std::memcpy(data_ + off + kCoreRecordBase, text.data(), text.size());
  }
  return slot;
}

Result<SlotId> TreePage::AddCoreRecord(TagId tag, std::uint64_t order,
                                       std::string_view text) {
  return AddNonBorderRecord(RecordKind::kCore, tag, order, text);
}

Result<SlotId> TreePage::AddAttributeRecord(TagId name, std::uint64_t order,
                                            std::string_view value) {
  return AddNonBorderRecord(RecordKind::kAttribute, name, order, value);
}

Result<SlotId> TreePage::AddBorderRecord(RecordKind kind) {
  NAVPATH_DCHECK(kind != RecordKind::kCore);
  NAVPATH_ASSIGN_OR_RETURN(const SlotId slot, AddRecord(kBorderRecordBytes));
  const std::size_t off = RecordOffset(slot);
  StoreU8(off, static_cast<std::uint8_t>(kind));
  StoreU8(off + 1, 0);
  SetParent(slot, kInvalidSlot);
  SetFirstChild(slot, kInvalidSlot);
  SetNextSibling(slot, kInvalidSlot);
  SetPrevSibling(slot, kInvalidSlot);
  SetPartner(slot, kInvalidNodeID);
  SetLastChild(slot, kInvalidSlot);
  return slot;
}

std::size_t TreePage::RecordBytes(SlotId slot) const {
  if (IsBorder(slot)) return kBorderRecordBytes;
  const std::size_t off = RecordOffset(slot);
  return kCoreRecordBase + LoadU16(off + 24);
}

void TreePage::RemoveRecord(SlotId slot) {
  NAVPATH_DCHECK(IsLive(slot));
  StoreU16(kHeaderBytes + slot * kSlotEntryBytes, 0);
}

void TreePage::Compact() {
  // Copy live records, packed towards the end, into a scratch image.
  std::vector<std::byte> scratch(page_size_);
  std::size_t write_pos = page_size_;
  const std::uint16_t count = slot_count();
  std::vector<std::uint16_t> new_offsets(count, 0);
  for (SlotId s = 0; s < count; ++s) {
    if (!IsLive(s)) continue;
    const std::size_t bytes = RecordBytes(s);
    write_pos -= bytes;
    std::memcpy(scratch.data() + write_pos, data_ + RecordOffset(s), bytes);
    new_offsets[s] = static_cast<std::uint16_t>(write_pos);
  }
  std::memcpy(data_ + write_pos, scratch.data() + write_pos,
              page_size_ - write_pos);
  for (SlotId s = 0; s < count; ++s) {
    StoreU16(kHeaderBytes + s * kSlotEntryBytes, new_offsets[s]);
  }
  StoreU16(2, static_cast<std::uint16_t>(write_pos));
}

std::string_view TreePage::TextOf(SlotId slot) const {
  NAVPATH_DCHECK(!IsBorder(slot));
  const std::size_t off = RecordOffset(slot);
  const std::uint16_t len = LoadU16(off + 24);
  return std::string_view(reinterpret_cast<const char*>(data_) + off +
                              kCoreRecordBase,
                          len);
}

Status TreePage::Validate() const {
  const std::uint16_t count = slot_count();
  const std::size_t dir_end = kHeaderBytes + count * kSlotEntryBytes;
  if (dir_end > page_size_ || record_start() > page_size_ ||
      record_start() < dir_end) {
    return Status::Corruption("page header out of bounds");
  }
  // First pass: every live record lies inside the page, whole, with a
  // known kind. The link checks below read linked records, so none of
  // them may run before every live slot is bounded.
  for (SlotId s = 0; s < count; ++s) {
    if (!IsLive(s)) continue;
    const std::size_t off = RecordOffset(s);
    if (off < record_start() || off + kBorderRecordBytes > page_size_) {
      return Status::Corruption("record offset out of bounds");
    }
    const auto kind = KindOf(s);
    if (kind == RecordKind::kCore || kind == RecordKind::kAttribute) {
      if (off + kCoreRecordBase > page_size_ ||
          off + kCoreRecordBase + TextOf(s).size() > page_size_) {
        return Status::Corruption("core record overflows page");
      }
    } else if (kind != RecordKind::kBorderDown &&
               kind != RecordKind::kBorderUp) {
      return Status::Corruption("bad record kind");
    }
  }
  // Second pass: links. A linked slot is live, so the first pass bounded
  // its record.
  auto check_link = [&](SlotId s) {
    return s == kInvalidSlot || (s < count && IsLive(s));
  };
  for (SlotId s = 0; s < count; ++s) {
    if (!IsLive(s)) continue;
    const auto kind = KindOf(s);
    if (!check_link(ParentOf(s)) || !check_link(FirstChildOf(s)) ||
        !check_link(NextSiblingOf(s)) || !check_link(PrevSiblingOf(s))) {
      return Status::Corruption("dangling slot link");
    }
    if (kind == RecordKind::kCore || kind == RecordKind::kAttribute) {
      if (!check_link(FirstAttrOf(s))) {
        return Status::Corruption("dangling attribute link");
      }
      if (kind == RecordKind::kAttribute &&
          FirstChildOf(s) != kInvalidSlot) {
        return Status::Corruption("attribute with children");
      }
    } else {
      if (!PartnerOf(s).valid()) {
        return Status::Corruption("border without partner");
      }
      if (kind == RecordKind::kBorderDown && FirstChildOf(s) != kInvalidSlot) {
        return Status::Corruption("down-border with local children");
      }
    }
    // Link symmetry within the page.
    const SlotId fc = FirstChildOf(s);
    if (fc != kInvalidSlot && ParentOf(fc) != s) {
      return Status::Corruption("first_child/parent mismatch");
    }
    const SlotId ns = NextSiblingOf(s);
    // Attribute chains are singly linked; child chains must be symmetric.
    if (ns != kInvalidSlot && KindOf(ns) != RecordKind::kBorderUp &&
        KindOf(ns) != RecordKind::kAttribute && PrevSiblingOf(ns) != s) {
      return Status::Corruption("next/prev sibling mismatch");
    }
  }
  return Status::OK();
}

}  // namespace navpath
