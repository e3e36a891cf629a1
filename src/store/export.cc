#include "store/export.h"

#include <vector>

#include "store/cluster_view.h"
#include "xml/serializer.h"

namespace navpath {

void AppendAttributes(const ClusterView& view, TagRegistry* tags,
                      SlotId element, std::string* out) {
  const TreePage& page = view.page();
  for (SlotId a = page.FirstAttrOf(element); a != kInvalidSlot;
       a = page.NextSiblingOf(a)) {
    view.ChargeHop();
    out->push_back(' ');
    out->append(tags->Name(view.TagOf(a)));
    out->append("=\"");
    AppendEscapedXmlAttribute(view.TextOf(a), out);
    out->push_back('"');
  }
}

namespace {

/// Iterative exporter. The stack holds open elements plus, per level, the
/// (possibly cross-cluster) child enumeration state: a local AxisCursor
/// and the page it runs on. Only the top level keeps its page pinned.
class Exporter {
 public:
  Exporter(Database* db, const ExportOptions& options)
      : db_(db), options_(options) {}

  Result<std::string> Run(NodeID root) {
    NAVPATH_RETURN_NOT_OK(OpenElement(root));
    while (!stack_.empty()) {
      NAVPATH_RETURN_NOT_OK(Advance());
    }
    return std::move(out_);
  }

 private:
  struct Level {
    std::string tag_name;    // cached: closing tag after children
    bool closes_tag = true;  // detour levels only continue a chain
    // Enumeration position within the current cluster's chain.
    PageId chain_page = kInvalidPageId;
    SlotId chain_slot = kInvalidSlot;    // next record to inspect
    SlotId chain_origin = kInvalidSlot;  // stop marker within chain_page
  };

  Status OpenElement(NodeID id) {
    NAVPATH_ASSIGN_OR_RETURN(
        PageGuard guard,
        db_->buffer()->FixSwizzle(
            TranslateToPhysical(options_.translator, id.page)));
    const ClusterView view = db_->MakeView(guard, id.page);
    Level level;
    level.tag_name = db_->tags()->Name(view.TagOf(id.slot));
    level.chain_page = id.page;
    level.chain_slot = view.page().FirstChildOf(id.slot);
    level.chain_origin = id.slot;
    const std::string_view text = view.TextOf(id.slot);
    out_.push_back('<');
    out_.append(level.tag_name);
    AppendAttributes(view, db_->tags(), id.slot, &out_);
    if (text.empty() && level.chain_slot == kInvalidSlot) {
      out_.append("/>");
      return Status::OK();  // nothing to push
    }
    out_.push_back('>');
    AppendEscapedXmlText(text, &out_);
    stack_.push_back(std::move(level));
    return Status::OK();
  }

  void CloseElement(const Level& level) {
    if (!level.closes_tag) return;
    out_.append("</");
    out_.append(level.tag_name);
    out_.push_back('>');
  }

  /// Processes one chain element of the top level (or closes it).
  Status Advance() {
    Level& top = stack_.back();
    if (top.chain_slot == kInvalidSlot ||
        top.chain_slot == top.chain_origin) {
      CloseElement(top);
      stack_.pop_back();
      return Status::OK();
    }
    NAVPATH_ASSIGN_OR_RETURN(
        PageGuard guard,
        db_->buffer()->Fix(
            TranslateToPhysical(options_.translator, top.chain_page)));
    const ClusterView view = db_->MakeView(guard, top.chain_page);
    const SlotId slot = top.chain_slot;
    view.ChargeHop();
    switch (view.page().KindOf(slot)) {
      case RecordKind::kCore: {
        top.chain_slot = view.page().NextSiblingOf(slot);
        const NodeID child{top.chain_page, slot};
        guard.Release();
        return OpenElement(child);
      }
      case RecordKind::kBorderDown: {
        // Continue this level's chain inside the partner fragment.
        const NodeID partner = view.PartnerOf(slot);
        ++db_->metrics()->inter_cluster_hops;
        top.chain_slot = view.page().NextSiblingOf(slot);
        // Remember where to resume after the partner fragment: the
        // partner's children are enumerated first, then we return here.
        Level detour = top;  // copy of the element level state
        NAVPATH_ASSIGN_OR_RETURN(
            PageGuard pguard,
            db_->buffer()->FixSwizzle(
                TranslateToPhysical(options_.translator, partner.page)));
        const ClusterView pview = db_->MakeView(pguard, partner.page);
        detour.chain_page = partner.page;
        detour.chain_slot = pview.page().FirstChildOf(partner.slot);
        detour.chain_origin = partner.slot;
        detour.closes_tag = false;  // continues the element's child list
        detour.tag_name.clear();
        stack_.push_back(std::move(detour));
        return Status::OK();
      }
      case RecordKind::kBorderUp:
        // End of a fragment chain: fall back to the outer level.
        top.chain_slot = kInvalidSlot;
        return Status::OK();
      case RecordKind::kAttribute:
        return Status::Corruption("attribute in a child chain");
    }
    return Status::Corruption("unknown record kind during export");
  }

  Database* db_;
  ExportOptions options_;
  std::string out_;
  std::vector<Level> stack_;
};

}  // namespace

Result<std::string> ExportSubtree(Database* db, NodeID node,
                                  const ExportOptions& options) {
  NAVPATH_CHECK(db != nullptr);
  Exporter exporter(db, options);
  return exporter.Run(node);
}

}  // namespace navpath
