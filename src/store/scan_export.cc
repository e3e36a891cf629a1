#include "store/scan_export.h"

#include <unordered_map>
#include <vector>

#include "store/cluster_view.h"
#include "store/export.h"
#include "xml/serializer.h"

namespace navpath {
namespace {

constexpr std::uint64_t kRootKey = ~0ull;

/// A partial document instance: the serialized text of one fragment with
/// holes where down-borders interrupt it. texts.size() ==
/// children.size() + 1; the final text is texts[0] + expand(children[0]) +
/// texts[1] + ...
struct FragmentText {
  std::vector<std::string> texts{std::string()};
  std::vector<std::uint64_t> children;  // packed up-border NodeIDs

  void Append(std::string_view piece) { texts.back().append(piece); }
  void AppendChar(char c) { texts.back().push_back(c); }
  void Hole(std::uint64_t key) {
    children.push_back(key);
    texts.emplace_back();
  }
};

class ScanExporter {
 public:
  explicit ScanExporter(Database* db) : db_(db) {}

  Result<std::string> Run(const ImportedDocument& doc) {
    for (PageId page = doc.first_page; page <= doc.last_page; ++page) {
      NAVPATH_ASSIGN_OR_RETURN(PageGuard guard,
                               db_->buffer()->FixSwizzle(page));
      const ClusterView view = db_->MakeView(guard);
      NAVPATH_RETURN_NOT_OK(SerializeClusterFragments(view));
    }
    return Assemble();
  }

 private:
  /// Serializes every fragment rooted in this cluster into a partial
  /// document instance.
  Status SerializeClusterFragments(const ClusterView& view) {
    const TreePage& page = view.page();
    for (SlotId slot = 0; slot < page.slot_count(); ++slot) {
      view.ChargeHop();
      if (!page.IsLive(slot)) continue;
      const RecordKind kind = page.KindOf(slot);
      if (kind == RecordKind::kBorderUp) {
        FragmentText fragment;
        SerializeChain(view, page.FirstChildOf(slot), slot, &fragment);
        Store(view.IdOf(slot).Pack(), std::move(fragment));
      } else if (kind == RecordKind::kCore &&
                 page.ParentOf(slot) == kInvalidSlot) {
        // The document root: a fragment of its own.
        FragmentText fragment;
        SerializeElement(view, slot, &fragment);
        Store(kRootKey, std::move(fragment));
      }
    }
    return Status::OK();
  }

  /// Serializes the chain starting at `first` until it terminates
  /// (kInvalidSlot) or loops back to the fragment root `stop`.
  void SerializeChain(const ClusterView& view, SlotId first, SlotId stop,
                      FragmentText* out) {
    const TreePage& page = view.page();
    for (SlotId cur = first; cur != kInvalidSlot && cur != stop;) {
      view.ChargeHop();
      switch (page.KindOf(cur)) {
        case RecordKind::kCore:
          SerializeElement(view, cur, out);
          break;
        case RecordKind::kBorderDown:
          out->Hole(view.PartnerOf(cur).Pack());
          break;
        case RecordKind::kBorderUp:
          return;  // chain terminal (defensive; stop should catch it)
        case RecordKind::kAttribute:
          return;  // attributes never appear in child chains
      }
      cur = page.NextSiblingOf(cur);
    }
  }

  void SerializeElement(const ClusterView& view, SlotId element,
                        FragmentText* out) {
    const std::string& name = db_->tags()->Name(view.TagOf(element));
    const std::string_view text = view.TextOf(element);
    const SlotId first_child = view.page().FirstChildOf(element);
    out->AppendChar('<');
    out->Append(name);
    AppendAttributes(view, db_->tags(), element, &out->texts.back());
    if (text.empty() && first_child == kInvalidSlot) {
      out->Append("/>");
      return;
    }
    out->AppendChar('>');
    AppendEscapedXmlText(text, &out->texts.back());
    SerializeChain(view, first_child, element, out);
    out->Append("</");
    out->Append(name);
    out->AppendChar('>');
  }

  void Store(std::uint64_t key, FragmentText fragment) {
    db_->clock()->ChargeCpu(db_->costs().set_op);
    ++db_->metrics()->instances_created;
    fragments_.emplace(key, std::move(fragment));
  }

  /// Expands the root instance, splicing child fragments into holes.
  Result<std::string> Assemble() {
    struct Frame {
      const FragmentText* fragment;
      std::size_t index = 0;
    };
    auto root_it = fragments_.find(kRootKey);
    if (root_it == fragments_.end()) {
      return Status::Corruption("scan found no document root fragment");
    }
    std::string out;
    std::vector<Frame> stack;
    stack.push_back(Frame{&root_it->second});
    out += root_it->second.texts[0];
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.index < frame.fragment->children.size()) {
        const std::uint64_t key = frame.fragment->children[frame.index];
        ++frame.index;
        db_->clock()->ChargeCpu(db_->costs().set_op);
        auto it = fragments_.find(key);
        if (it == fragments_.end()) {
          return Status::Corruption("missing fragment for border " +
                                    NodeID::Unpack(key).ToString());
        }
        stack.push_back(Frame{&it->second});
        out += it->second.texts[0];
        continue;
      }
      stack.pop_back();
      if (!stack.empty()) {
        Frame& parent = stack.back();
        out += parent.fragment->texts[parent.index];
      }
    }
    return out;
  }

  Database* db_;
  std::unordered_map<std::uint64_t, FragmentText> fragments_;
};

}  // namespace

Result<std::string> ScanExportDocument(Database* db,
                                       const ImportedDocument& doc) {
  NAVPATH_CHECK(db != nullptr);
  ScanExporter exporter(db);
  return exporter.Run(doc);
}

}  // namespace navpath
