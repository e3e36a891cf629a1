// Document export from the paged store.
//
// Serializes (sub)documents back to XML text by navigating the physical
// tree — the workload the paper's outlook mentions as another application
// of partial path instances ("speed up document export"). The exporter
// here is the navigational baseline: it walks child axes across clusters
// and charges the usual navigation costs, so its metrics can be compared
// against query plans.
#ifndef NAVPATH_STORE_EXPORT_H_
#define NAVPATH_STORE_EXPORT_H_

#include <string>

#include "common/status.h"
#include "store/database.h"
#include "store/import.h"

namespace navpath {

struct ExportOptions {
  /// MVCC page translation (a Snapshot or WriterTxn); nullptr exports the
  /// current page images. Lets tests serialize exactly what one snapshot
  /// sees, independent of later commits.
  const PageTranslator* translator = nullptr;
};

/// Serializes the subtree rooted at `node` from the paged store.
Result<std::string> ExportSubtree(Database* db, NodeID node,
                                  const ExportOptions& options = {});

/// Appends ` name="value"` pairs for an element's attribute chain.
class ClusterView;  // fwd
void AppendAttributes(const ClusterView& view, TagRegistry* tags,
                      SlotId element, std::string* out);

/// Serializes the whole document.
inline Result<std::string> ExportDocument(Database* db,
                                          const ImportedDocument& doc,
                                          const ExportOptions& options = {}) {
  return ExportSubtree(db, doc.root, options);
}

}  // namespace navpath

#endif  // NAVPATH_STORE_EXPORT_H_
