// XScan: sequential-scan I/O operator (Sec. 5.4.3).
//
// Visits every cluster of the document exactly once, in physical order,
// at sequential-transfer cost. For each cluster it first returns the
// producer's context instances located there (the context input is sorted
// by cluster), then speculatively produces one left-incomplete seed
// instance per (border record, step) so the cluster never needs to be
// visited again.
//
// Fallback (Sec. 5.4.6): the scan restarts its producer and acts as the
// identity afterwards — the whole path is re-evaluated by the (now
// Unnest-Map-like) XStep chain, with XAssembly's R preventing duplicate
// results.
#ifndef NAVPATH_ALGEBRA_XSCAN_H_
#define NAVPATH_ALGEBRA_XSCAN_H_

#include <vector>

#include "algebra/operator.h"
#include "store/import.h"
#include "store/path_summary.h"

namespace navpath {

struct XScanOptions {
  PageId first_page = kInvalidPageId;
  PageId last_page = kInvalidPageId;
  int path_length = 0;
  /// Pages the sweep may restrict itself to (sorted, merged page ranges
  /// from the path summary's touched-extent union; empty = sweep the
  /// whole [first_page, last_page] range). Pages outside the union hold
  /// no candidate node of any step, so skipping them cannot change the
  /// result. Context pages are re-added defensively at Open().
  std::vector<SummaryExtent> restrict_to;
};

class XScan : public PathOperator {
 public:
  XScan(Database* db, PlanSharedState* shared, PathOperator* producer,
        const XScanOptions& options)
      : db_(db), shared_(shared), producer_(producer), options_(options) {}

  Status Open() override;
  Result<bool> Next(PathInstance* out) override;
  Status Close() override;

 private:
  /// Smallest page >= `page` the restricted sweep may visit (== `page`
  /// when no restriction is set). Monotone calls; advances restrict_idx_.
  PageId NextAllowedPage(PageId page);

  Database* db_;
  PlanSharedState* shared_;
  PathOperator* producer_;
  XScanOptions options_;

  std::vector<PathInstance> contexts_;  // sorted by cluster of N_R
  std::size_t ctx_pos_ = 0;

  bool page_open_ = false;
  PageId next_page_ = kInvalidPageId;

  SlotId seed_slot_ = 0;
  int seed_step_ = 0;

  bool fallback_started_ = false;
  std::size_t fallback_pos_ = 0;

  std::size_t restrict_idx_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_XSCAN_H_
