// XSchedule / XSchedule^R: the asynchronous-I/O-performing operator
// (Sec. 5.3.4, 5.4.4).
//
// All physical accesses of a path plan are pooled here. The operator keeps
// a queue Q of unprocessed partial path instances grouped by the cluster
// of their right end, submits asynchronous reads for every queued cluster,
// and serves instances cluster-by-cluster in whatever order the I/O
// subsystem completes them (the disk picks shortest-seek-first among
// pending requests). The producer supplies context nodes; XAssembly feeds
// back right-incomplete instances whose target clusters must be visited.
//
// With `speculative` set, entering a cluster additionally emits the same
// left-incomplete seed instances XScan produces, so that no cluster needs
// to be visited twice (Sec. 5.4.4).
//
// Under cooperative multi-query execution the operator accounts for how
// each pull ended on the plan's shared state (PlanSharedState::io_yields /
// io_blocks): a pull that polled and found nothing due yields, a pull that
// had to wait on the drive blocks. The workload scheduler reads these over
// a recent-pull window to classify the query as I/O- or CPU-bound.
#ifndef NAVPATH_ALGEBRA_XSCHEDULE_H_
#define NAVPATH_ALGEBRA_XSCHEDULE_H_

#include <deque>
#include <vector>

#include "algebra/cluster_queue.h"
#include "algebra/operator.h"

namespace navpath {

struct XScheduleOptions {
  /// Desired minimum number of queued right ends (paper default: 100).
  std::size_t k = 100;
  /// Generate speculative seeds on every cluster visit.
  bool speculative = false;
  /// |pi|, needed to generate seeds for each step.
  int path_length = 0;
};

class XSchedule : public PathOperator {
 public:
  XSchedule(Database* db, PlanSharedState* shared, PathOperator* producer,
            const XScheduleOptions& options)
      : db_(db), shared_(shared), producer_(producer), options_(options) {}

  Status Open() override;
  Result<bool> Next(PathInstance* out) override;
  Status Close() override;

  /// Called by XAssembly: queue `inst` (right end = the border record in
  /// the cluster that must be visited) and schedule the cluster's I/O.
  Status AddWork(const PathInstance& inst);

 private:
  /// Queues `inst` under its right end's cluster and submits that
  /// cluster's read (every queued cluster is on order at once).
  Status Enqueue(const PathInstance& inst);
  void MarkReady(PageId page);
  Status Replenish();
  /// Picks and pins the next cluster; false when no work remains.
  Result<bool> SwitchToNextCluster();
  /// Pins `page` as the current cluster and starts its seeds; `event`
  /// names the trace instant.
  Status EnterCluster(PageId page, const char* event);

  Database* db_;
  PlanSharedState* shared_;
  PathOperator* producer_;
  XScheduleOptions options_;

  // Q, with the per-page ready flag: a page's flag is set exactly while
  // the page waits in ready_, so ready_ holds each page at most once.
  ClusterQueue q_;
  bool producer_done_ = false;

  std::deque<PageId> ready_;
  // BufferManager::installs() when the cooperative check for clusters a
  // sibling installed last ran (or at Open); the next check looks only at
  // pages installed after it. See DESIGN.md, "Claimed frames and the
  // yield protocol".
  std::uint64_t scanned_installs_ = 0;
  std::vector<PageId> installed_;  // reused by that check

  // Speculative seed enumeration state for the current cluster.
  bool seeding_ = false;
  SlotId seed_slot_ = 0;
  int seed_step_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_XSCHEDULE_H_
