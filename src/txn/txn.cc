#include "txn/txn.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace navpath {

// ---------------------------------------------------------------------------
// Snapshot

Snapshot::Snapshot(TxnManager* mgr,
                   std::shared_ptr<const DocumentVersion> version)
    : mgr_(mgr), version_(std::move(version)) {}

Snapshot::~Snapshot() { mgr_->ReleaseSnapshot(version_->seq); }

PageId Snapshot::ToPhysical(PageId logical) const {
  const auto it = version_->to_physical.find(logical);
  return it == version_->to_physical.end() ? logical : it->second;
}

PageId Snapshot::ToLogical(PageId physical) const {
  const auto it = version_->to_logical.find(physical);
  return it == version_->to_logical.end() ? physical : it->second;
}

bool Snapshot::IsShadow(PageId page) const {
  return mgr_->IsShadowPage(page);
}

// ---------------------------------------------------------------------------
// WriterTxn

WriterTxn::WriterTxn(TxnManager* mgr, Database* db,
                     std::shared_ptr<const DocumentVersion> base)
    : mgr_(mgr),
      db_(db),
      base_(std::move(base)),
      doc_(base_->doc),
      updater_(db, &doc_, this) {}

WriterTxn::~WriterTxn() {
  if (open_) {
    RollBack();
    ++mgr_->aborts_;
  }
}

PageId WriterTxn::ToPhysical(PageId logical) const {
  const auto it = write_set_.find(logical);
  if (it != write_set_.end()) return it->second;
  const auto base = base_->to_physical.find(logical);
  return base == base_->to_physical.end() ? logical : base->second;
}

PageId WriterTxn::ToLogical(PageId physical) const {
  const auto it = write_set_reverse_.find(physical);
  if (it != write_set_reverse_.end()) return it->second;
  const auto base = base_->to_logical.find(physical);
  return base == base_->to_logical.end() ? physical : base->second;
}

bool WriterTxn::IsShadow(PageId page) const {
  return mgr_->IsShadowPage(page);
}

Result<PageGuard> WriterTxn::FixMutable(PageId logical) {
  if (!open_) {
    return Status::InvalidArgument("writer transaction is finished");
  }
  const auto hit = write_set_.find(logical);
  if (hit != write_set_.end()) {
    return db_->buffer()->Fix(hit->second);
  }
  if (mgr_->IsShadowPage(logical)) {
    return Status::InvalidArgument("page is a shadow, not a logical page");
  }
  // Copy-on-write: fix the base image, copy it into a fresh shadow page,
  // and redirect this transaction's view of `logical` to the shadow. The
  // base guard stays pinned across AdoptPage so eviction cannot race the
  // copy.
  const auto base = base_->to_physical.find(logical);
  const PageId base_physical =
      base == base_->to_physical.end() ? logical : base->second;
  NAVPATH_ASSIGN_OR_RETURN(PageGuard base_guard,
                           db_->buffer()->Fix(base_physical));
  NAVPATH_ASSIGN_OR_RETURN(const PageId shadow, mgr_->AllocateShadowPage());
  Result<PageGuard> adopted =
      db_->buffer()->AdoptPage(shadow, base_guard.data());
  if (!adopted.ok()) {
    mgr_->free_pages_.push_back(shadow);
    return adopted.status();
  }
  write_set_[logical] = shadow;
  write_set_reverse_[shadow] = logical;
  shadow_pages_.push_back(shadow);
  return adopted;
}

void WriterTxn::NoteReadDependency(PageId id) {
  if (!open_) return;
  // Pages this transaction wrote are validated as part of the write set.
  if (write_set_.count(id) > 0) return;
  dependency_pages_.insert(id);
}

Result<PageId> WriterTxn::AppendLogicalPage() {
  if (!open_) {
    return Status::InvalidArgument("writer transaction is finished");
  }
  // A page appended by this transaction is invisible to every existing
  // snapshot (their catalogs end before it), so it needs no shadow: the
  // identity write-set entry marks it as privately writable.
  const PageId id = db_->disk()->AllocatePage();
  std::vector<std::byte> zeros(db_->options().page_size);
  NAVPATH_ASSIGN_OR_RETURN(PageGuard guard,
                           db_->buffer()->AdoptPage(id, zeros.data()));
  write_set_[id] = id;
  write_set_reverse_[id] = id;
  new_logical_pages_.push_back(id);
  return id;
}

void WriterTxn::RollBack() {
  // Shadow copies are private, so dropping their frames loses nothing; a
  // frame that is somehow still pinned is left to age out of the buffer
  // (Discard refuses it) but its id is still recycled — AdoptPage
  // overwrites a resident frame in place on reuse.
  for (const PageId p : shadow_pages_) {
    (void)db_->buffer()->Discard(p);
    mgr_->free_pages_.push_back(p);
  }
  // Appended pages were provisionally logical; once the transaction dies
  // they must never be interpreted as clusters, so they join the shadow
  // set and become reusable shadow storage.
  for (const PageId p : new_logical_pages_) {
    (void)db_->buffer()->Discard(p);
    mgr_->shadow_pages_.insert(p);
    mgr_->free_pages_.push_back(p);
  }
  open_ = false;
}

Status WriterTxn::Abort() {
  if (!open_) {
    return Status::InvalidArgument("writer transaction is finished");
  }
  RollBack();
  ++mgr_->aborts_;
  return Status::OK();
}

Status WriterTxn::Commit() {
  if (!open_) {
    return Status::InvalidArgument("writer transaction is finished");
  }
  if (write_set_.empty() && !updater_.structural_change()) {
    // Nothing touched: committing publishes nothing and conflicts with
    // nobody.
    open_ = false;
    commit_seq_ = base_->seq;
    ++mgr_->commits_;
    return Status::OK();
  }
  const std::shared_ptr<const DocumentVersion> head = mgr_->current_;
  if (head->seq != base_->seq) {
    // Commits landed since BeginWrite. Page-granular first-committer-wins:
    // this transaction survives iff none of them wrote a page it wrote or
    // read. A base older than the bounded commit log cannot be validated
    // and aborts conservatively.
    bool conflict = !mgr_->CommitLogCoversSince(base_->seq);
    for (auto it = mgr_->commit_log_.rbegin();
         !conflict && it != mgr_->commit_log_.rend() && it->seq > base_->seq;
         ++it) {
      for (const PageId p : it->pages) {
        if (write_set_.count(p) > 0 || dependency_pages_.count(p) > 0) {
          conflict = true;
          break;
        }
      }
    }
    if (conflict) {
      RollBack();
      ++mgr_->aborts_;
      return Status::Aborted(
          "conflicting commit published since this transaction began");
    }
  }

  // Rebase onto the head version: the write sets are disjoint (validated
  // above), so overlaying this transaction's page map, catalog deltas and
  // summary deltas onto the head's commutes with the interleaved commits.
  auto version = std::make_shared<DocumentVersion>();
  version->seq = head->seq + 1;
  version->to_physical = head->to_physical;
  version->to_logical = head->to_logical;
  std::vector<TxnManager::RetiredVersion> newly_retired;
  std::vector<PageId> committed_pages;
  committed_pages.reserve(write_set_.size());
  for (const auto& [logical, shadow] : write_set_) {
    committed_pages.push_back(logical);
    if (logical == shadow) continue;  // appended page: already in place
    const auto old = version->to_physical.find(logical);
    if (old != version->to_physical.end()) {
      // The logical page had been shadowed before; that older shadow now
      // serves only snapshots with seq < version->seq and is retired.
      newly_retired.push_back(
          TxnManager::RetiredVersion{old->second, version->seq});
      version->to_logical.erase(old->second);
    }
    // First shadowing keeps the base image reachable forever (identity
    // fallback for versions that predate it); base pages are never retired.
    version->to_physical[logical] = shadow;
    version->to_logical[shadow] = logical;
  }

  // Catalog counters: apply this transaction's deltas (relative to its
  // base) on top of the head catalog. Root identity never changes (the
  // root is neither deletable nor evacuable).
  version->doc = head->doc;
  auto rebase = [](std::uint64_t head_v, std::uint64_t mine,
                   std::uint64_t base_v) {
    return head_v + mine - base_v;  // wraps transiently, never net-negative
  };
  const ImportedDocument& based = base_->doc;
  version->doc.core_records =
      rebase(head->doc.core_records, doc_.core_records, based.core_records);
  version->doc.attribute_records = rebase(
      head->doc.attribute_records, doc_.attribute_records,
      based.attribute_records);
  version->doc.border_pairs =
      rebase(head->doc.border_pairs, doc_.border_pairs, based.border_pairs);
  version->doc.pages = rebase(head->doc.pages, doc_.pages, based.pages);
  version->doc.last_page = std::max(head->doc.last_page, doc_.last_page);

  const bool deltas_clean = !updater_.structural_change();
  const auto& inserts = updater_.summary_inserts();
  const auto& deletes = updater_.summary_deletes();
  const auto& remaps = updater_.summary_remaps();
  if (!deltas_clean || head->summary == nullptr) {
    version->summary = nullptr;  // degrade: queries fall back to navigation
    if (head->summary != nullptr) ++mgr_->summary_degrades_;
  } else if (inserts.empty() && deletes.empty() && remaps.empty()) {
    version->summary = head->summary;
  } else {
    auto cloned = head->summary->CloneWithDeltas(inserts, deletes, remaps);
    if (cloned == nullptr) {
      version->summary = nullptr;
      ++mgr_->summary_degrades_;
    } else {
      version->summary = std::shared_ptr<const PathSummary>(std::move(cloned));
    }
  }

  commit_seq_ = version->seq;
  open_ = false;
  ++mgr_->commits_;
  updater_.ClearSummaryDelta();
  mgr_->commit_log_.push_back(
      TxnManager::CommitRecord{version->seq, std::move(committed_pages)});
  if (mgr_->commit_log_.size() > TxnManager::kCommitLogLimit) {
    mgr_->commit_log_.pop_front();
  }
  mgr_->Publish(std::move(version), std::move(newly_retired));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TxnManager

TxnManager::TxnManager(Database* db, ImportedDocument* canonical_doc)
    : db_(db), canonical_doc_(canonical_doc) {
  NAVPATH_CHECK(db != nullptr);
  auto genesis = std::make_shared<DocumentVersion>();
  genesis->seq = 0;
  if (canonical_doc_ != nullptr) genesis->doc = *canonical_doc_;
  genesis->summary = db_->shared_summary();
  current_ = std::move(genesis);
  // Retired-but-pinned page versions are skipped by TryReclaim; without
  // this hook they would wait for the *next* commit or snapshot release,
  // which may never come (the reclamation-stall bug). Draining on the
  // unpin that made them eligible closes the leak. No-op while nothing is
  // retired, so zero-writer runs are untouched.
  db_->buffer()->SetUnpinListener([this](PageId) {
    if (!retired_.empty()) TryReclaim();
  });
}

TxnManager::~TxnManager() { db_->buffer()->SetUnpinListener({}); }

std::shared_ptr<Snapshot> TxnManager::OpenSnapshot() {
  ++active_[current_->seq];
  return std::shared_ptr<Snapshot>(new Snapshot(this, current_));
}

std::unique_ptr<WriterTxn> TxnManager::BeginWrite() {
  return std::unique_ptr<WriterTxn>(new WriterTxn(this, db_, current_));
}

std::size_t TxnManager::active_snapshots() const {
  std::size_t n = 0;
  for (const auto& [seq, count] : active_) n += count;
  return n;
}

Result<PageId> TxnManager::AllocateShadowPage() {
  PageId id;
  if (!free_pages_.empty()) {
    id = free_pages_.back();
    free_pages_.pop_back();
  } else {
    id = db_->disk()->AllocatePage();
  }
  shadow_pages_.insert(id);
  return id;
}

void TxnManager::ReleaseSnapshot(std::uint64_t seq) {
  const auto it = active_.find(seq);
  NAVPATH_CHECK(it != active_.end() && it->second > 0);
  if (--it->second == 0) active_.erase(it);
  TryReclaim();
}

void TxnManager::Publish(std::shared_ptr<const DocumentVersion> version,
                         std::vector<RetiredVersion> newly_retired) {
  current_ = std::move(version);
  db_->SetSummary(current_->summary);
  if (canonical_doc_ != nullptr) *canonical_doc_ = current_->doc;
  versions_retired_ += newly_retired.size();
  for (RetiredVersion& r : newly_retired) retired_.push_back(r);
  TryReclaim();
}

void TxnManager::TryReclaim() {
  const std::uint64_t min_active =
      active_.empty() ? std::numeric_limits<std::uint64_t>::max()
                      : active_.begin()->first;
  auto it = retired_.begin();
  while (it != retired_.end()) {
    // A retired shadow is reachable only from snapshots older than the
    // commit that replaced it; once every such snapshot drained it can go.
    if (min_active >= it->retired_at) {
      const Status dropped = db_->buffer()->Discard(it->physical);
      if (!dropped.ok()) {
        // Pinned frame (a query is mid-access): never free a pinned
        // version — leave it retired and retry on the next drain.
        ++it;
        continue;
      }
      free_pages_.push_back(it->physical);
      ++versions_reclaimed_;
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

VersionedRootState TxnManager::ExportState() const {
  VersionedRootState state;
  state.seq = current_->seq;
  state.mappings.assign(current_->to_physical.begin(),
                        current_->to_physical.end());
  std::sort(state.mappings.begin(), state.mappings.end());
  state.shadow_pages.assign(shadow_pages_.begin(), shadow_pages_.end());
  std::sort(state.shadow_pages.begin(), state.shadow_pages.end());
  state.free_pages = free_pages_;
  std::sort(state.free_pages.begin(), state.free_pages.end());
  return state;
}

Status TxnManager::RestoreState(const VersionedRootState& state) {
  if (!active_.empty() || !retired_.empty() || commits_ != 0 ||
      current_->seq != 0) {
    return Status::InvalidArgument(
        "RestoreState requires a freshly constructed TxnManager");
  }
  const PageId page_count = db_->disk()->num_pages();
  for (const auto& [logical, physical] : state.mappings) {
    if (logical >= page_count || physical >= page_count) {
      return Status::InvalidArgument("versioned root references "
                                     "pages beyond the disk segment");
    }
  }
  auto version = std::make_shared<DocumentVersion>();
  version->seq = state.seq;
  for (const auto& [logical, physical] : state.mappings) {
    version->to_physical[logical] = physical;
    version->to_logical[physical] = logical;
  }
  if (canonical_doc_ != nullptr) version->doc = *canonical_doc_;
  version->summary = db_->shared_summary();
  current_ = std::move(version);
  shadow_pages_.clear();
  shadow_pages_.insert(state.shadow_pages.begin(), state.shadow_pages.end());
  free_pages_ = state.free_pages;
  return Status::OK();
}

}  // namespace navpath
