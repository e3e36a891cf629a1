// Database persistence: save/load the page image and catalog to a file.
//
// The simulated disk holds page images in memory; persistence writes them
// (plus the tag registry and the document catalog entry) to an ordinary
// file so that imported documents survive process restarts — the
// "industrial-strength DBMS" framing of Sec. 1 without simulating
// recovery. The file layout is:
//
//   [magic "NVPH"][u32 version][u32 page_size][u32 page_count]
//   [u32 tag_count][tag_count x (u32 len, bytes)]      -- tag registry
//   [catalog: root NodeID, root order, page range, record counts]
//   [u8 has_summary][u64 len, bytes, u32 crc]          -- path summary (v3)
//   [page_count x (page_size bytes + 8-byte trailer)]  -- raw pages
//
// Since version 2 every page image is followed by its trailer (CRC32C of
// the payload + a reserved word). Load verifies each page against its
// trailer and fails with Status::Corruption on the first mismatch, so a
// damaged database file is detected at open time rather than surfacing as
// undefined navigation behaviour later.
//
// Version 3 adds the path-summary synopsis between catalog and pages,
// protected by its own CRC32C. Summary damage is NOT fatal: the synopsis
// is derived data, so load degrades — the database comes up without a
// summary and LoadedDatabase.summary_status carries the Corruption report.
// Queries then navigate, and there are no statistics to price plans with:
// DocumentStats derives from the summary, and the file holds no tree to
// rebuild one from, so a caller runs a fixed plan instead.
// Version-2 files load unchanged, with no summary.
#ifndef NAVPATH_STORE_PERSISTENCE_H_
#define NAVPATH_STORE_PERSISTENCE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/database.h"
#include "store/import.h"

namespace navpath {

/// The MVCC transaction layer's durable state (format v4): the published
/// version sequence plus the logical->physical page mapping of the
/// current root, the shadow-page set (physical pages that must never be
/// interpreted as logical clusters), and the recyclable free list. The
/// page images themselves need no special handling — SaveDatabase writes
/// every disk page, shadows included. A plain value type so the store
/// layer stays independent of src/txn/.
struct VersionedRootState {
  std::uint64_t seq = 0;
  std::vector<std::pair<PageId, PageId>> mappings;  // logical -> physical
  std::vector<PageId> shadow_pages;
  std::vector<PageId> free_pages;
};

/// Writes the database's pages, tags and `doc`'s catalog entry to `path`.
/// The file is written as `<path>.tmp`, synced, and renamed over `path`
/// once complete; then the directory is synced. A save that fails before
/// the rename returns IOError, removes the temp file and leaves any
/// previous file at `path` untouched. A failed directory sync returns
/// IOError with the new file in place but not known to be durable.
/// `txn_state`, when non-null, persists the MVCC versioned root so the
/// current document version survives the round trip (without it, a reload
/// would see pre-copy-on-write page images for shadowed pages).
Status SaveDatabase(Database* db, const ImportedDocument& doc,
                    const std::string& path,
                    const VersionedRootState* txn_state = nullptr);

struct LoadedDatabase {
  std::unique_ptr<Database> db;
  ImportedDocument doc;
  /// OK when the summary block loaded cleanly (or the file has none);
  /// Status::Corruption when the block was damaged and the database was
  /// opened without a synopsis (degrade-to-rebuild, never abort).
  Status summary_status = Status::OK();
  /// Set when the file carried a versioned root (format v4): feed it to
  /// TxnManager::RestoreState before serving snapshots.
  bool has_txn_state = false;
  VersionedRootState txn_state;
};

/// Restores a database saved with SaveDatabase. `options` configures the
/// simulation (buffer size, cost models); the page size is taken from the
/// file and overrides options.page_size. A file whose pages fail their
/// checksums, or whose catalog names a root or page range outside its
/// pages or a root slot that is not a live core record, is Corruption.
Result<LoadedDatabase> LoadDatabase(const std::string& path,
                                    DatabaseOptions options = {});

}  // namespace navpath

#endif  // NAVPATH_STORE_PERSISTENCE_H_
