// Database: the environment every experiment runs in.
//
// Owns the simulated clock, metrics, tag registry, simulated disk and
// buffer manager, and tracks imported documents. The algebra operators and
// the baseline access it through thin accessors.
#ifndef NAVPATH_STORE_DATABASE_H_
#define NAVPATH_STORE_DATABASE_H_

#include <memory>
#include <vector>

#include "common/flat_set.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/cpu_cost_model.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"
#include "store/cluster_view.h"
#include "store/clustering.h"
#include "store/import.h"
#include "store/path_summary.h"
#include "xml/dom.h"
#include "xml/tag_registry.h"

namespace navpath {

struct DatabaseOptions {
  std::size_t page_size = kDefaultPageSize;
  /// Page buffer capacity; the paper's setup uses 1000 pages (Sec. 6.1).
  std::size_t buffer_pages = 1000;
  DiskModel disk_model;
  CpuCostModel cpu_costs;
  ImportOptions import;
  /// Storage fault injection (off by default: all rates zero). When any
  /// knob is enabled a seeded injector is attached to the disk.
  FaultInjectorOptions faults;
  /// Buffer-level retry/backoff for transient I/O failures.
  RetryPolicy retry;
};

class Database {
 public:
  explicit Database(const DatabaseOptions& options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  TagRegistry* tags() { return &tags_; }
  SimClock* clock() { return &clock_; }
  Metrics* metrics() { return &metrics_; }
  SimulatedDisk* disk() { return disk_.get(); }
  BufferManager* buffer() { return buffer_.get(); }
  /// nullptr when fault injection is disabled.
  FaultInjector* fault_injector() { return fault_injector_.get(); }
  const CpuCostModel& costs() const { return options_.cpu_costs; }
  const DatabaseOptions& options() const { return options_; }

  /// Creates (or reconfigures) the tracer and wires it into the disk and
  /// buffer manager; all subsequent I/O emits spans. Returns the tracer —
  /// or nullptr on a build configured with -DNAVPATH_OBSERVE=OFF, where
  /// these calls are stubs and nothing is ever recorded.
  Tracer* EnableTracing();
  Tracer* EnableTracing(const TracerOptions& options);
  void DisableTracing();
  /// nullptr unless EnableTracing was called (or observability is off).
  Tracer* tracer() const { return tracer_; }

  /// Imports `tree` clustered by `policy`. The tree must have been built
  /// against this database's tag registry and have order keys assigned.
  /// When ImportOptions::build_summary is set, the first import also
  /// builds the path-summary synopsis; a second import into the same
  /// database invalidates it (the summary is per-document).
  Result<ImportedDocument> Import(const DomTree& tree,
                                  ClusteringPolicy* policy);

  /// The path-summary synopsis of the (single) imported document, or
  /// nullptr when disabled, invalidated, or nothing was imported yet.
  const PathSummary* summary() const { return summary_.get(); }
  std::shared_ptr<const PathSummary> shared_summary() const {
    return summary_;
  }
  /// Installs a summary (persistence load, tests).
  void SetSummary(std::shared_ptr<const PathSummary> summary) {
    summary_ = std::move(summary);
  }
  /// Drops the summary. Store mutations (DocumentUpdater) call this: a
  /// stale synopsis would return confidently wrong exact counts.
  void InvalidateSummary() { summary_.reset(); }

  /// Builds a cost-charging view over a pinned page.
  ClusterView MakeView(const PageGuard& guard) {
    return MakeView(guard, guard.page_id());
  }

  /// View over a pinned page that identifies itself by `logical_id`
  /// rather than the guard's physical id. Under MVCC a snapshot may fix a
  /// shadow copy of logical page L at physical page P; NodeIDs minted by
  /// the view must keep saying L or stored-id identity breaks.
  ClusterView MakeView(const PageGuard& guard, PageId logical_id) {
    return ClusterView(guard.data(), options_.page_size, logical_id, &clock_,
                       &options_.cpu_costs, &metrics_, nav_images_.get(),
                       guard.page_id());
  }

  /// The preorder images of the pages, kept across evictions (NavIndex).
  NavIndexCache* nav_images() { return nav_images_.get(); }

  /// Cold-starts a measurement: drops the buffer, resets clock + metrics.
  Status ResetMeasurement();

  /// Idle per-query membership tables: XAssembly's R and each query
  /// lifecycle's result dedup set take theirs here and give them back.
  FlatSetPool<std::uint64_t>* table_pool() { return &table_pool_; }

 private:
  DatabaseOptions options_;
  SimClock clock_;
  Metrics metrics_;
  TagRegistry tags_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<BufferManager> buffer_;
  std::unique_ptr<NavIndexCache> nav_images_;
  std::shared_ptr<const PathSummary> summary_;
  FlatSetPool<std::uint64_t> table_pool_;
  std::size_t imported_docs_ = 0;
  /// Owned; raw because the observe-off build must not reference ~Tracer.
  Tracer* tracer_ = nullptr;
};

}  // namespace navpath

#endif  // NAVPATH_STORE_DATABASE_H_
