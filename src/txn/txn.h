// MVCC transaction subsystem: page-versioned copy-on-write snapshots of
// the cluster tree (the LMDB-style design ROADMAP calls the single
// biggest unlock for real traffic).
//
// Identity model. The page ids stored inside page bytes (border partner
// pointers), in NodeIDs, in plan contexts and in summary extents are
// *logical*. A published version carries a logical->physical map; the
// identity map is implicit for every unmapped page. Translation to a
// physical page happens exactly once per access, at buffer Fix/Prefetch
// time, through the PageTranslator a Snapshot or WriterTxn implements.
// Shadow (physical-only) pages are never reused as logical pages, so a
// range sweep can skip them by set membership (PageTranslator::IsShadow).
//
// Concurrency model (in simulated time; the process is single-threaded):
//   * Readers open a Snapshot: a pin on the published version (root
//     catalog + page map + synopsis). Everything a reader fixes through
//     the snapshot is the version's immutable image, no matter how many
//     commits land while the query runs.
//   * A writer copies each logical page to a fresh shadow page on first
//     touch (copy-on-write), builds privately, and publishes a new
//     version atomically at Commit. Conflict rule: first committer wins
//     at page granularity — a Commit whose base version is no longer
//     current validates its write set *and* the pages its decisions read
//     (order-key neighbors, ancestor chains) against the pages written by
//     every commit that landed in between; on overlap it returns
//     Status::Aborted, otherwise it rebases onto the head version (page
//     maps are disjoint, catalog counters and summary deltas commute).
//     The validation history is a bounded commit log; a writer whose base
//     predates the log tail aborts conservatively.
//   * Reclamation: a commit that remaps logical page L from shadow P_old
//     to P_new retires P_old at the new sequence number. P_old is freed
//     (buffer frame dropped, id recycled into the shadow free list) once
//     no live snapshot's sequence precedes the retiring commit — the
//     epoch/refcount drain in simulated time. A still-pinned frame is
//     never freed; it is retried on the next drain.
//
// Base pages (the import-time images) are never retired: a logical page's
// original physical slot keeps serving every snapshot that predates its
// first shadowing, and stays the fallback identity mapping afterwards.
#ifndef NAVPATH_TXN_TXN_H_
#define NAVPATH_TXN_TXN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "store/database.h"
#include "store/import.h"
#include "store/path_summary.h"
#include "store/persistence.h"
#include "store/update.h"

namespace navpath {

class TxnManager;

/// One published, immutable version of the document.
struct DocumentVersion {
  std::uint64_t seq = 0;
  /// Pages shadowed at least once; absent pages map to themselves.
  std::unordered_map<PageId, PageId> to_physical;
  std::unordered_map<PageId, PageId> to_logical;
  ImportedDocument doc;
  /// Synopsis exact for this version (nullptr after a structural change).
  std::shared_ptr<const PathSummary> summary;
};

/// A reader's pin on one published version. Implements PageTranslator for
/// the algebra/navigation layers and nothing else: it is not a
/// WritePageIO, so handing a snapshot to a DocumentUpdater does not
/// compile. Destroying the snapshot releases the pin and may trigger
/// reclamation of drained versions.
class Snapshot final : public PageTranslator {
 public:
  ~Snapshot() override;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  std::uint64_t seq() const { return version_->seq; }
  const ImportedDocument& doc() const { return version_->doc; }
  const PathSummary* summary() const { return version_->summary.get(); }
  std::shared_ptr<const PathSummary> shared_summary() const {
    return version_->summary;
  }

  // PageTranslator.
  PageId ToPhysical(PageId logical) const override;
  PageId ToLogical(PageId physical) const override;
  bool IsShadow(PageId page) const override;

 private:
  friend class TxnManager;
  Snapshot(TxnManager* mgr, std::shared_ptr<const DocumentVersion> version);

  TxnManager* mgr_;
  std::shared_ptr<const DocumentVersion> version_;
};

/// A writer transaction: copy-on-write page fixes over a base version,
/// publishing atomically at Commit. Create via TxnManager::BeginWrite;
/// mutate through updater() (or any DocumentUpdater constructed with this
/// as its WritePageIO). Destruction aborts an unfinished transaction.
class WriterTxn final : public PageTranslator, public WritePageIO {
 public:
  ~WriterTxn() override;
  WriterTxn(const WriterTxn&) = delete;
  WriterTxn& operator=(const WriterTxn&) = delete;

  bool open() const { return open_; }
  std::uint64_t base_seq() const { return base_->seq; }
  /// Sequence published by Commit (0 while open or after abort).
  std::uint64_t commit_seq() const { return commit_seq_; }

  /// The transaction's private document catalog (bookkeeping the updater
  /// maintains); becomes the published catalog at Commit.
  ImportedDocument* doc() { return &doc_; }
  /// An updater pre-wired to this transaction's COW page I/O.
  DocumentUpdater* updater() { return &updater_; }

  /// Publishes the write set as the next version. Returns Aborted (and
  /// rolls the transaction back) when a commit that landed since
  /// BeginWrite wrote a page this transaction wrote or depended on;
  /// otherwise disjoint concurrent commits rebase and both succeed.
  /// InvalidArgument when already finished.
  Status Commit();
  /// Discards the write set; shadow pages return to the free list.
  Status Abort();

  // WritePageIO.
  Result<PageGuard> FixMutable(PageId logical) override;
  Result<PageId> AppendLogicalPage() override;
  const PageTranslator* translator() const override { return this; }
  void NoteReadDependency(PageId id) override;

  // PageTranslator: the write set shadows the base version, so the
  // writer's own navigation sees its uncommitted changes.
  PageId ToPhysical(PageId logical) const override;
  PageId ToLogical(PageId physical) const override;
  bool IsShadow(PageId page) const override;

 private:
  friend class TxnManager;
  WriterTxn(TxnManager* mgr, Database* db,
            std::shared_ptr<const DocumentVersion> base);

  void RollBack();

  TxnManager* mgr_;
  Database* db_;
  std::shared_ptr<const DocumentVersion> base_;
  std::unordered_map<PageId, PageId> write_set_;  // logical -> private page
  std::unordered_map<PageId, PageId> write_set_reverse_;
  /// Logical pages read (not written) while deciding this transaction's
  /// mutations; validated against concurrent commits' write sets.
  std::unordered_set<PageId> dependency_pages_;
  std::vector<PageId> shadow_pages_;       // allocated for COW this txn
  std::vector<PageId> new_logical_pages_;  // appended this txn
  bool open_ = true;
  std::uint64_t commit_seq_ = 0;
  ImportedDocument doc_;
  DocumentUpdater updater_;
};

/// Owns the published version chain head, the shadow-page bookkeeping and
/// reclamation. One manager per (database, document).
class TxnManager {
 public:
  /// `db` must outlive the manager. `canonical_doc` (optional) is the
  /// caller's document catalog, kept in sync with the latest commit so
  /// non-snapshot consumers observe the current version.
  ///
  /// The manager registers itself as the buffer's unpin listener so
  /// retired-but-pinned page versions are reclaimed as soon as their last
  /// pin drops (not merely on the next commit or snapshot release); the
  /// registration is released on destruction.
  TxnManager(Database* db, ImportedDocument* canonical_doc);
  ~TxnManager();

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Pins the current version for reading. Never blocks, never fails.
  std::shared_ptr<Snapshot> OpenSnapshot();

  /// Starts a writer over the current version. Multiple writers may be
  /// open simultaneously (optimistic; first commit wins).
  std::unique_ptr<WriterTxn> BeginWrite();

  std::uint64_t current_seq() const { return current_->seq; }
  const ImportedDocument& current_doc() const { return current_->doc; }
  std::shared_ptr<const DocumentVersion> current_version() const {
    return current_;
  }

  bool IsShadowPage(PageId page) const {
    return shadow_pages_.count(page) > 0;
  }

  std::size_t active_snapshots() const;
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t versions_retired() const { return versions_retired_; }
  std::uint64_t versions_reclaimed() const { return versions_reclaimed_; }
  /// Retired page versions still waiting for their last reader to drain.
  std::size_t retired_pending() const { return retired_.size(); }
  /// Commits that published a summary-free version although their base
  /// (head) version still had an exact synopsis — i.e. delta maintenance
  /// failed. Insert/delete-only workloads must keep this at zero.
  std::uint64_t summary_degrades() const { return summary_degrades_; }

  /// Durable form of the published root for SaveDatabase (deterministic:
  /// all lists sorted).
  VersionedRootState ExportState() const;
  /// Re-installs a saved root. Only valid on a freshly constructed
  /// manager (no snapshots, writers or retired versions yet); the
  /// canonical document and summary are taken from the database/loader.
  Status RestoreState(const VersionedRootState& state);

 private:
  friend class Snapshot;
  friend class WriterTxn;

  struct RetiredVersion {
    PageId physical = kInvalidPageId;
    std::uint64_t retired_at = 0;  // seq of the commit that replaced it
  };

  /// One published commit, for page-granular backward validation. The log
  /// is bounded (kCommitLogLimit); writers whose base predates the tail
  /// abort conservatively. Not persisted: a restored root has no open
  /// writers to validate against.
  struct CommitRecord {
    std::uint64_t seq = 0;
    std::vector<PageId> pages;  // logical pages the commit wrote
  };
  static constexpr std::size_t kCommitLogLimit = 256;

  /// True when every published commit with seq > `base_seq` is still in
  /// the log (published seqs are contiguous).
  bool CommitLogCoversSince(std::uint64_t base_seq) const {
    return !commit_log_.empty() && commit_log_.front().seq <= base_seq + 1;
  }

  Result<PageId> AllocateShadowPage();
  void ReleaseSnapshot(std::uint64_t seq);
  void Publish(std::shared_ptr<const DocumentVersion> version,
               std::vector<RetiredVersion> newly_retired);
  /// Frees retired versions no live snapshot can still reach. Pinned
  /// frames are skipped and retried on the next drain.
  void TryReclaim();

  Database* db_;
  ImportedDocument* canonical_doc_;
  std::shared_ptr<const DocumentVersion> current_;
  /// Every page ever used as a shadow (monotone; ids never return to
  /// logical use, so sweep-skip stays valid for all snapshots).
  std::unordered_set<PageId> shadow_pages_;
  std::vector<PageId> free_pages_;  // reclaimed shadow ids, reusable
  std::map<std::uint64_t, std::size_t> active_;  // snapshot seq -> count
  std::vector<RetiredVersion> retired_;
  std::deque<CommitRecord> commit_log_;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t versions_retired_ = 0;
  std::uint64_t versions_reclaimed_ = 0;
  std::uint64_t summary_degrades_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_TXN_TXN_H_
