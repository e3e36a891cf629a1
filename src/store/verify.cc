#include "store/verify.h"

#include <deque>
#include <unordered_set>

#include "store/cross_cursor.h"
#include "store/tree_page.h"

namespace navpath {

Result<VerifyReport> VerifyStore(Database* db, const ImportedDocument& doc) {
  VerifyReport report;
  const std::size_t page_size = db->options().page_size;

  // A store with no pages holds no document (its catalog names page
  // kInvalidPageId), so only the record counts below are checked.
  const bool empty = doc.page_count() == 0;
  for (PageId p = doc.first_page; !empty && p <= doc.last_page; ++p) {
    NAVPATH_ASSIGN_OR_RETURN(PageGuard guard, db->buffer()->Fix(p));
    const TreePage page = TreePage::ReadOnly(guard.data(), page_size);
    NAVPATH_RETURN_NOT_OK(page.Validate());
    ++report.pages;
    for (SlotId s = 0; s < page.slot_count(); ++s) {
      if (!page.IsLive(s)) continue;
      if (page.KindOf(s) == RecordKind::kAttribute) {
        ++report.attribute_records;
        continue;
      }
      if (!page.IsBorder(s)) {
        ++report.core_records;
        continue;
      }
      ++report.border_records;
      const NodeID partner = page.PartnerOf(s);
      if (partner.page < doc.first_page || partner.page > doc.last_page) {
        return Status::Corruption("partner outside document: " +
                                  partner.ToString());
      }
      NAVPATH_ASSIGN_OR_RETURN(PageGuard partner_guard,
                               db->buffer()->Fix(partner.page));
      const TreePage partner_page =
          TreePage::ReadOnly(partner_guard.data(), page_size);
      // The partner page may not have been validated yet: read its record
      // only through a bounds-checked offset.
      TreePage::CheckedRecord record{};
      if (!partner_page.ReadChecked(partner.slot, &record) ||
          (record.kind != RecordKind::kBorderDown &&
           record.kind != RecordKind::kBorderUp)) {
        return Status::Corruption("partner is not a border: " +
                                  partner.ToString());
      }
      if (record.kind == page.KindOf(s)) {
        return Status::Corruption("partner has same direction: " +
                                  partner.ToString());
      }
      if (partner_page.PartnerOf(partner.slot) != (NodeID{p, s})) {
        return Status::Corruption("asymmetric border pair at " +
                                  NodeID{p, s}.ToString());
      }
    }
  }
  if (report.core_records != doc.core_records) {
    return Status::Corruption("core record count mismatch");
  }
  if (report.attribute_records != doc.attribute_records) {
    return Status::Corruption("attribute record count mismatch");
  }
  if (report.border_records != 2 * doc.border_pairs) {
    return Status::Corruption("border record count mismatch");
  }
  if (empty) return report;

  // Logical walk: every core reachable exactly once, unique order keys.
  std::unordered_set<std::uint64_t> seen_orders;
  std::deque<LogicalNode> queue;
  queue.push_back(LogicalNode{doc.root, 0, doc.root_order});
  CrossClusterCursor cursor(db);
  while (!queue.empty()) {
    const LogicalNode node = queue.front();
    queue.pop_front();
    if (!seen_orders.insert(node.order).second) {
      return Status::Corruption("duplicate order key " +
                                std::to_string(node.order));
    }
    ++report.reachable_cores;
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kAttribute, node.id));
    LogicalNode attr;
    for (;;) {
      NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&attr));
      if (!more) break;
      if (!seen_orders.insert(attr.order).second) {
        return Status::Corruption("duplicate attribute order key");
      }
      ++report.reachable_attributes;
    }
    NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kChild, node.id));
    LogicalNode child;
    for (;;) {
      NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&child));
      if (!more) break;
      queue.push_back(child);
    }
  }
  if (report.reachable_cores != doc.core_records) {
    return Status::Corruption(
        "unreachable core records: " +
        std::to_string(doc.core_records - report.reachable_cores));
  }
  if (report.reachable_attributes != doc.attribute_records) {
    return Status::Corruption("unreachable attribute records");
  }
  return report;
}

}  // namespace navpath
