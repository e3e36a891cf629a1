#include "store/database.h"

namespace navpath {

Database::Database(const DatabaseOptions& options) : options_(options) {
  disk_ = std::make_unique<SimulatedDisk>(options_.disk_model,
                                          options_.page_size, &clock_,
                                          &metrics_);
  if (options_.faults.AnyEnabled()) {
    fault_injector_ = std::make_unique<FaultInjector>(options_.faults);
    disk_->SetFaultInjector(fault_injector_.get());
  }
  buffer_ = std::make_unique<BufferManager>(disk_.get(),
                                            options_.buffer_pages,
                                            options_.cpu_costs, &clock_,
                                            &metrics_, options_.retry);
  nav_images_ = std::make_unique<NavIndexCache>(buffer_.get());
}

Database::~Database() { DisableTracing(); }

Tracer* Database::EnableTracing() { return EnableTracing(TracerOptions{}); }

Tracer* Database::EnableTracing(const TracerOptions& options) {
#if NAVPATH_OBSERVE_ENABLED
  DisableTracing();
  tracer_ = new Tracer(&clock_, options);
  disk_->SetTracer(tracer_);
  buffer_->SetTracer(tracer_);
  return tracer_;
#else
  (void)options;
  return nullptr;
#endif
}

void Database::DisableTracing() {
#if NAVPATH_OBSERVE_ENABLED
  if (tracer_ == nullptr) return;
  disk_->SetTracer(nullptr);
  buffer_->SetTracer(nullptr);
  delete tracer_;
  tracer_ = nullptr;
#endif
}

Result<ImportedDocument> Database::Import(const DomTree& tree,
                                          ClusteringPolicy* policy) {
  NAVPATH_CHECK(policy != nullptr);
  if (tree.tags() != &tags_) {
    return Status::InvalidArgument(
        "document was built against a foreign tag registry");
  }
  const ClusterAssignment assignment = policy->Assign(tree);
  const bool want_summary =
      options_.import.build_summary && imported_docs_ == 0;
  std::vector<PageId> node_pages;
  std::vector<std::pair<DomNodeId, PageId>> glue_pages;
  NAVPATH_ASSIGN_OR_RETURN(
      ImportedDocument doc,
      MaterializeDocument(tree, assignment, disk_.get(), options_.import,
                          want_summary ? &node_pages : nullptr,
                          want_summary ? &glue_pages : nullptr));
  ++imported_docs_;
  if (want_summary) {
    summary_ = PathSummary::Build(tree, node_pages, glue_pages);
  } else {
    // The synopsis describes exactly one document; a second import (or a
    // summary-off import) leaves the database without one.
    summary_.reset();
  }
  return doc;
}

Status Database::ResetMeasurement() {
  NAVPATH_RETURN_NOT_OK(buffer_->InvalidateAll());
  clock_.Reset();
  disk_->ResetTimeline();
  metrics_.Reset();
#if NAVPATH_OBSERVE_ENABLED
  // Trace timestamps must match the fresh clock, so the window restarts.
  if (tracer_ != nullptr) tracer_->Clear();
#endif
  return Status::OK();
}

}  // namespace navpath
