#include "algebra/xscan.h"

#include <algorithm>

namespace navpath {

Status XScan::Open() {
  NAVPATH_RETURN_NOT_OK(producer_->Open());
  contexts_.clear();
  ctx_pos_ = 0;
  page_open_ = false;
  next_page_ = options_.first_page;
  fallback_started_ = false;
  fallback_pos_ = 0;

  // The specification requires the context input sorted by cluster id;
  // materialize and sort it here.
  PathInstance inst;
  for (;;) {
    NAVPATH_ASSIGN_OR_RETURN(const bool have, producer_->Pull(&inst));
    if (!have) break;
    contexts_.push_back(inst);
  }
  std::sort(contexts_.begin(), contexts_.end(),
            [](const PathInstance& a, const PathInstance& b) {
              return a.right.node < b.right.node;
            });
  db_->clock()->ChargeCpu(contexts_.size() * db_->costs().sort_op);

  // A restricted sweep must still visit every context's page: contexts
  // are delivered while their cluster is open. The planner's touched set
  // covers them for absolute paths; merge them in regardless so a
  // mismatched restriction degrades to extra pages, not lost results.
  restrict_idx_ = 0;
  if (!options_.restrict_to.empty()) {
    std::vector<PageId> pages;
    for (const PathInstance& ctx : contexts_) {
      pages.push_back(ctx.right.node.page);
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    std::vector<SummaryExtent> merged;
    std::size_t pi = 0;
    for (const SummaryExtent& e : options_.restrict_to) {
      while (pi < pages.size() && pages[pi] < e.first) {
        merged.push_back(SummaryExtent{pages[pi], pages[pi]});
        ++pi;
      }
      while (pi < pages.size() && pages[pi] <= e.last) ++pi;
      merged.push_back(e);
    }
    while (pi < pages.size()) {
      merged.push_back(SummaryExtent{pages[pi], pages[pi]});
      ++pi;
    }
    options_.restrict_to = std::move(merged);
  }
  return Status::OK();
}

Status XScan::Close() {
  shared_->cluster.Clear();
  return producer_->Close();
}

PageId XScan::NextAllowedPage(PageId page) {
  const std::vector<SummaryExtent>& ext = options_.restrict_to;
  if (ext.empty()) return page;
  while (restrict_idx_ < ext.size() && ext[restrict_idx_].last < page) {
    ++restrict_idx_;
  }
  if (restrict_idx_ >= ext.size()) return kInvalidPageId;
  return std::max(page, ext[restrict_idx_].first);
}

Result<bool> XScan::Next(PathInstance* out) {
  for (;;) {
    if (shared_->fallback) {
      // Restart-as-identity: re-deliver every context; the XStep chain
      // (now in Unnest-Map mode) re-evaluates the whole path.
      if (!fallback_started_) {
        fallback_started_ = true;
        fallback_pos_ = 0;
        page_open_ = false;
        shared_->cluster.Clear();
      }
      if (fallback_pos_ < contexts_.size()) {
        *out = contexts_[fallback_pos_++];
        return true;
      }
      return false;
    }

    if (page_open_) {
      const PageId current = shared_->cluster.page();
      if (ctx_pos_ < contexts_.size() &&
          contexts_[ctx_pos_].right.node.page == current) {
        *out = contexts_[ctx_pos_++];
        db_->clock()->ChargeCpu(db_->costs().instance_op);
        return true;
      }
      if (NextClusterSeed(db_, shared_->cluster.view(), options_.path_length,
                          &seed_slot_, &seed_step_, out)) {
        return true;
      }
      page_open_ = false;
    }

    for (;;) {
      if (next_page_ != kInvalidPageId) {
        next_page_ = NextAllowedPage(next_page_);
      }
      if (next_page_ == kInvalidPageId || next_page_ > options_.last_page) {
        shared_->cluster.Clear();
        return false;
      }
      // Under MVCC, shadow copies live in the same id space as appended
      // logical pages, so the sweep range can straddle them. They are
      // never part of any version's logical document — skip.
      const PageTranslator* translator = shared_->cluster.translator();
      if (translator != nullptr && translator->IsShadow(next_page_)) {
        ++next_page_;
        continue;
      }
      break;
    }
    // Sequential access: the previous page of the scan is the disk head's
    // position, so this fix costs transfer time only.
    NAVPATH_RETURN_NOT_OK(shared_->cluster.Switch(next_page_));
    NAVPATH_TRACE(db_->tracer(),
                  Instant(TraceCategory::kScheduler, kTrackScheduler,
                          "scan_cluster", db_->clock()->now(),
                          {{"page", next_page_},
                           {"owner", shared_->owner_id}}));
    shared_->visited_clusters.insert(next_page_);
    ++next_page_;
    page_open_ = true;
    seed_slot_ = 0;
    seed_step_ = 0;
  }
}

}  // namespace navpath
