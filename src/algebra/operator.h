// Physical operator interface (iterators, [Graefe 93]) and the shared
// execution state of one path plan.
#ifndef NAVPATH_ALGEBRA_OPERATOR_H_
#define NAVPATH_ALGEBRA_OPERATOR_H_

#include <optional>

#include "algebra/path_instance.h"
#include "common/flat_set.h"
#include "common/status.h"
#include "observe/profile.h"
#include "observe/trace.h"
#include "store/cluster_view.h"
#include "store/database.h"

namespace navpath {

/// Open/Next/Close iterator over partial path instances.
///
/// Consumers call the non-virtual Pull() instead of Next() directly: with
/// profiling enabled on the owning plan, Pull brackets the virtual call
/// with simulated-clock readings (feeding the PlanProfiler's self/total
/// attribution) and emits one operator span per pull; otherwise it is a
/// plain tail call into Next().
class PathOperator {
 public:
  virtual ~PathOperator() = default;

  virtual Status Open() = 0;
  /// Produces the next instance; ok(false) signals exhaustion.
  virtual Result<bool> Next(PathInstance* out) = 0;
  virtual Status Close() = 0;

  /// Instrumented entry point — what producers and plan roots call.
  Result<bool> Pull(PathInstance* out) {
#if NAVPATH_OBSERVE_ENABLED
    if (profiler_ != nullptr) return ProfiledNext(out);
#endif
    return Next(out);
  }

#if NAVPATH_OBSERVE_ENABLED
  /// Wired by BuildPlan when PlanOptions.profile is set. `owner` points at
  /// the plan's owner_id so workload queries land on their own trace track;
  /// the tracer is read from `db` per pull, so tracing can be enabled
  /// after the plan is built.
  void EnableProfiling(PlanProfiler* profiler, Database* db,
                       const std::uint32_t* owner, std::size_t slot) {
    profiler_ = profiler;
    profile_db_ = db;
    owner_ = owner;
    slot_ = slot;
  }
#endif

 private:
#if NAVPATH_OBSERVE_ENABLED
  Result<bool> ProfiledNext(PathInstance* out) {
    const SimClock* clock = profile_db_->clock();
    const SimTime begin = clock->now();
    profiler_->Enter(slot_, begin, clock->io_wait_time());
    Result<bool> result = Next(out);
    const SimTime end = clock->now();
    const bool produced = result.ok() && *result;
    profiler_->Exit(slot_, end, clock->io_wait_time(), produced);
    NAVPATH_TRACE(
        profile_db_->tracer(),
        Span(TraceCategory::kOperator, kTrackQueryBase + *owner_,
             profiler_->operators()[slot_].name, begin, end,
             {{"produced", produced ? 1u : 0u}}));
    return result;
  }

  PlanProfiler* profiler_ = nullptr;
  Database* profile_db_ = nullptr;
  const std::uint32_t* owner_ = nullptr;
  std::size_t slot_ = 0;
#endif
};

/// The cluster currently pinned by the plan's I/O-performing operator.
/// XStep operators navigate it; XAssembly resolves border partners through
/// it. Exactly one cluster is current at any time in XSchedule/XScan plans
/// (the core idea of the paper: all right ends in flight live there).
class ClusterContext {
 public:
  explicit ClusterContext(Database* db) : db_(db) {}

  bool valid() const { return view_.has_value(); }
  PageId page() const { return valid() ? logical_page_ : kInvalidPageId; }
  const ClusterView& view() const {
    NAVPATH_DCHECK(valid());
    return *view_;
  }

  /// Snapshot/transaction page translation (MVCC). All operator-level page
  /// ids stay logical; only the buffer fix below maps to the physical
  /// (possibly shadow-copied) page. nullptr = identity = current version.
  void SetTranslator(const PageTranslator* translator) {
    translator_ = translator;
  }
  const PageTranslator* translator() const { return translator_; }

  /// Pins `page` (a logical id) as the current cluster (entering a
  /// cluster swizzles).
  Status Switch(PageId page) {
    NAVPATH_ASSIGN_OR_RETURN(
        PageGuard guard,
        db_->buffer()->FixSwizzle(TranslateToPhysical(translator_, page)));
    guard_ = std::move(guard);
    logical_page_ = page;
    view_.emplace(db_->MakeView(guard_, page));
    ++db_->metrics()->clusters_visited;
#if NAVPATH_OBSERVE_ENABLED
    if (visit_counter_ != nullptr) ++*visit_counter_;
#endif
    return Status::OK();
  }

  void Clear() {
    view_.reset();
    guard_.Release();
    logical_page_ = kInvalidPageId;
  }

#if NAVPATH_OBSERVE_ENABLED
  /// Profiling hook: also count switches into `counter` (the profiler's
  /// clusters_entered), attributing visits to this plan alone.
  void set_visit_counter(std::uint64_t* counter) { visit_counter_ = counter; }
#endif

 private:
  Database* db_;
  const PageTranslator* translator_ = nullptr;
  PageGuard guard_;
  PageId logical_page_ = kInvalidPageId;
  std::optional<ClusterView> view_;
#if NAVPATH_OBSERVE_ENABLED
  std::uint64_t* visit_counter_ = nullptr;
#endif
};

/// State shared across the operators of one plan.
struct PlanSharedState {
  explicit PlanSharedState(Database* db) : cluster(db) {}

  ClusterContext cluster;

  /// Fallback mode (Sec. 5.4.6): set by XAssembly when the speculative
  /// structure S exceeds its memory budget; XStep then navigates across
  /// cluster borders like a plain Unnest-Map and the I/O operators stop
  /// producing seeds.
  bool fallback = false;

  /// Clusters already visited by the I/O operator (used by speculative
  /// XSchedule to avoid scheduling visits whose answers are already in S).
  FlatSet<PageId> visited_clusters;

  /// Identity of the query this plan belongs to within a multi-query
  /// workload (0 = standalone execution). The buffer manager attributes
  /// prefetch interest to it, so duplicate reads issued by *different*
  /// queries are detected and merged.
  std::uint32_t owner_id = 0;

  /// Set by the WorkloadExecutor: sibling queries share the buffer and
  /// disk, so a wait by one query can install a cluster another query
  /// asked for. Cooperative plans check for such already-resident queued
  /// clusters before blocking on their own prefetches.
  bool cooperative = false;

  /// Granted by the WorkloadExecutor per pull: instead of blocking on its
  /// own prefetches, the I/O operator polls for due completions and, if
  /// none arrived yet, reports exhaustion with `yielded` set. The
  /// scheduler then runs a sibling query, letting submissions pool at the
  /// disk instead of being drained one-by-one by blocking waits.
  bool yield_on_block = false;
  /// Out-parameter of a yielding Next(): the stream is NOT exhausted, the
  /// plan merely refused to block. The scheduler clears it and retries
  /// the query later.
  bool yielded = false;

  /// Cooperative-scheduling accounting, written by the I/O-performing
  /// operator: pulls that ended in a yield (polled, nothing due) and
  /// pulls that blocked on the drive. The workload scheduler windows
  /// these per job — a query whose recent pulls mostly waited on I/O is
  /// I/O-bound and belongs in the pool-keeping rotation, not the
  /// shortest-job-first queue. Reset with the plan (fresh per path).
  std::uint64_t io_yields = 0;
  std::uint64_t io_blocks = 0;

#if NAVPATH_OBSERVE_ENABLED
  /// Non-null when the plan was built with PlanOptions.profile; operators
  /// report actual per-step cardinalities through it (EXPLAIN ANALYZE).
  PlanProfiler* profiler = nullptr;
#endif
};

/// Speculative seeds of the open cluster `view` (Sec. 5.4.3), shared by
/// XScan and speculative XSchedule: one left-incomplete instance
/// l_{b,i} per (border record b, step i < path_length), in slot order.
/// `*slot` and `*step` are the enumeration's position, which the caller
/// zeroes on entering a cluster. Writes the next seed to `out` and
/// returns true, or returns false once the cluster has none left. The
/// border records are the page's preorder image's, which reads the slot
/// directory through checked offsets only.
inline bool NextClusterSeed(Database* db, const ClusterView& view,
                            int path_length, SlotId* slot, int* step,
                            PathInstance* out) {
  const NavIndex& image = view.Index();
  while (*slot < view.slot_count()) {
    if (*step < path_length && image.IsBorder(*slot)) {
      *out = PathInstance::Seed(view.IdOf(*slot), *step);
      ++*step;
      db->clock()->ChargeCpu(db->costs().instance_op);
      ++db->metrics()->speculative_instances;
      ++db->metrics()->instances_created;
      return true;
    }
    view.ChargeHop();
    *step = 0;
    ++*slot;
  }
  return false;
}

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_OPERATOR_H_
