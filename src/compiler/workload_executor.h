// Multi-query workload execution over one shared database.
//
// The paper closes with the prediction that "concurrent queries [will]
// strongly benefit from asynchronous I/O, as scheduling decisions can be
// made based on more pending requests" (Sec. 7). This module realizes it:
// N XPath queries are admitted against one Database (one buffer manager,
// one simulated disk) and their operator trees are pulled cooperatively,
// one instance at a time, so every query's pending asynchronous reads pool
// in the disk's elevator simultaneously. The buffer manager merges
// duplicate reads across queries (one submission, many interested owners),
// and admission control keeps the aggregate prefetch footprint of the
// active queries within the buffer budget.
//
// Three interleaving policies are provided:
//   kRoundRobin          — one pull per active query in turn (fairness),
//   kShortestRemainingCost — shortest-expected-remaining-cost first, using
//                          the cost model's per-path estimates (SJF-style,
//                          minimizes mean turnaround but serializes the
//                          pull pool and starves the elevator at N ≥ 4),
//   kHybrid              — classifies every active query as I/O- or
//                          CPU-bound from live signals (in-flight
//                          prefetches, the recent yield/block ratio of its
//                          pulls, remaining-clusters estimate) and
//                          alternates between round-robining the I/O-bound
//                          set (pool depth ≈ round-robin's) and SJF over
//                          the CPU-bound set (turnaround ≈ SJF's).
//
// With max_concurrent == 1 the executor degenerates to back-to-back
// execution, which is the baseline the workload benchmarks compare
// against.
#ifndef NAVPATH_COMPILER_WORKLOAD_EXECUTOR_H_
#define NAVPATH_COMPILER_WORKLOAD_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/cost_model.h"
#include "compiler/executor.h"
#include "compiler/plan.h"
#include "observe/metrics_registry.h"
#include "store/update.h"
#include "txn/txn.h"
#include "xpath/location_path.h"

namespace navpath {

enum class WorkloadPolicy {
  kRoundRobin,
  kShortestRemainingCost,
  kHybrid,
};

const char* WorkloadPolicyName(WorkloadPolicy policy);

struct WorkloadOptions {
  WorkloadPolicy policy = WorkloadPolicy::kRoundRobin;

  /// Maximum number of concurrently active queries; 0 means "as many as
  /// the buffer budget admits" (three quarters of the pool for the active
  /// queries' aggregate prefetch footprint; the head of the admission
  /// queue is always admitted). 1 yields back-to-back execution.
  std::size_t max_concurrent = 0;

  /// Collect result nodes (document order) for node-mode queries.
  bool collect_nodes = false;

  /// Document statistics for kShortestRemainingCost and for cost-derived
  /// admission footprints; without them the policy degrades to
  /// least-recently-pulled fairness and footprints fall back to the
  /// static queue_k-based bound.
  const DocumentStats* stats = nullptr;

  /// Tighten admission footprints with the cost model's clusters_touched
  /// estimate (needs `stats`): a query that can only ever hold few
  /// clusters in flight is charged that, not its full prefetch window.
  /// Benches that track longitudinal trajectories pin this off to keep
  /// admission sequences comparable across revisions.
  bool footprint_from_stats = true;

  /// Let per-query cost/cardinality estimates (admission footprints, DRR
  /// cost charging, shortest-remaining-cost ordering) use the database's
  /// path-summary synopsis where a path is in its exactness domain; off
  /// reproduces pure DocumentStats estimates byte-for-byte. Summary use
  /// inside each query (pruning, XScan restriction, the count()/exists()
  /// answer) stays governed by its PlanOptions.
  bool summary = true;

  /// Produce an EXPLAIN ANALYZE report per query (forces plan profiling).
  bool explain = false;

  /// Test/diagnostic hook: invoked before every scheduling decision's
  /// pull with the Add()-order index of the chosen job and the size of
  /// the active set at that moment. Null (the default) costs nothing;
  /// the hook runs outside the simulated clock.
  std::function<void(std::size_t job_index, std::size_t active_size)>
      on_pull;

  /// MVCC transaction manager (src/txn) for mixed read/write workloads.
  /// When set, every read query runs against a Snapshot opened at
  /// activation (snapshot isolation: the query sees exactly one committed
  /// version, no matter what commits mid-flight), and AddWrite() admits
  /// write transactions that copy-on-write their touched pages and
  /// publish at commit. Null — the default — reproduces pre-MVCC
  /// execution byte for byte. Must outlive the executor.
  TxnManager* txn = nullptr;

  /// Number of write transactions the admission gate runs at once
  /// (requires `txn`; 0 is InvalidArgument). 1 — the default —
  /// serializes writers. Above 1 writers run optimistically: a commit
  /// that loses the first-committer race retries (writer_max_retries).
  std::size_t max_writers = 1;

  /// Bounded retry of a write transaction whose commit loses the
  /// first-committer race (Status::Aborted): the job re-begins against
  /// the new head and re-applies its ops, up to this many times, after an
  /// exponential backoff in simulated time. A transaction that exhausts
  /// the budget fails with the final Aborted status. Retries only ever
  /// trigger with max_writers > 1 (a serialized writer has nothing to
  /// conflict with inside one executor).
  std::size_t writer_max_retries = 8;

  /// Group commit: WriteOps applied per scheduling pull of a writer. 1 —
  /// the default — keeps the historical one-op-per-pull interleaving;
  /// larger batches amortize the per-pull scheduling charge over the
  /// batch and commit after the pull that applies the last op, raising
  /// commit throughput at the price of coarser write/read interleaving.
  std::size_t writer_batch = 1;
};

/// One primitive of a write transaction submitted via AddWrite.
///
/// kInsert adds a new element under `parent` after sibling `after`
/// (kInvalidNodeID = as first child), carrying optional text and
/// attributes — the auction-bid shape of the mixed benchmark. kDelete
/// removes the *last* child of `parent` whose tag is `tag` (and its
/// whole subtree), resolved through the writer's own translator at apply
/// time so ops earlier in the same transaction are visible; a parent
/// with no such child fails the job with InvalidArgument. Deletes are
/// last-child-by-tag rather than NodeID-addressed because NodeIDs are
/// physical: a concurrent commit's page split may relocate the victim
/// between submission and the (possibly retried) application.
struct WriteOp {
  enum class Kind { kInsert, kDelete };

  NodeID parent;
  NodeID after = kInvalidNodeID;
  TagId tag = 0;
  // Initialized so that `WriteOp{parent, after, tag}` may stop short of
  // them without -Wmissing-field-initializers.
  std::string text{};
  std::vector<DocumentUpdater::AttributeSpec> attrs{};
  Kind kind = Kind::kInsert;
};

/// Entry validation for WorkloadOptions: a serving front-end feeds these
/// from per-tenant configuration, so malformed budgets must surface as
/// InvalidArgument instead of tripping asserts mid-run. Checked by
/// BeginStepping(), and so by Run().
Status ValidateWorkloadOptions(const WorkloadOptions& options);

/// Outcome of one query of the workload.
struct WorkloadQueryResult {
  /// Distinct result nodes (summed over count() operands); 0 or 1 for
  /// exists(), the OR over its operand paths.
  std::uint64_t count = 0;
  /// Node mode with collect_nodes: distinct nodes in document order.
  std::vector<LogicalNode> nodes;

  /// Per-query execution status. A query whose pull surfaces an error
  /// (e.g. Status::Corruption from a permanently bad page) is failed
  /// individually: its status records the error, its neighbors and the
  /// serving loop keep running, and Run() still returns OK.
  Status status;
  /// The query ran on a cheaper tier than requested (serving-layer
  /// overload degradation via RetierJob).
  bool degraded = false;

  /// Simulated arrival time (0 for closed-system workloads where every
  /// query is present at the start), when the admission controller
  /// activated the query, and when it completed. Turnaround is measured
  /// from arrival, so queueing delay before admission counts against the
  /// query.
  SimTime arrival = 0;
  SimTime admitted_at = 0;
  SimTime finished_at = 0;
  /// Operator-tree pulls the scheduler spent on this query.
  std::uint64_t pulls = 0;

  /// Mixed-workload (WorkloadOptions.txn) bookkeeping. Readers record
  /// the version they ran against; writers record the version they
  /// published (0 when the transaction aborted or failed). For a retried
  /// writer, snapshot_seq is the base of the attempt that committed and
  /// `aborts` counts the optimistic attempts that lost the
  /// first-committer race before it (writes/deletes_applied report the
  /// committed attempt only — aborted work is rolled back).
  bool is_write = false;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t commit_seq = 0;
  std::uint64_t writes_applied = 0;
  std::uint64_t deletes_applied = 0;
  std::uint64_t aborts = 0;

  /// EXPLAIN ANALYZE report (WorkloadOptions.explain only).
  std::shared_ptr<QueryExplain> explain;

  SimTime turnaround() const { return finished_at - arrival; }
  double turnaround_seconds() const {
    return SimClock::ToSeconds(turnaround());
  }
};

struct WorkloadResult {
  /// Per-query outcomes, in Add() order.
  std::vector<WorkloadQueryResult> queries;

  /// Simulated makespan of the run and its CPU portion, from the cold
  /// start in BeginStepping() to EndStepping().
  SimTime total_time = 0;
  SimTime cpu_time = 0;
  /// Database metrics over the same span (includes requests_merged and
  /// the elevator depth counters).
  Metrics metrics;

  /// Scheduler-side report for the run, filled once by EndStepping:
  /// counters "sched.decisions" (scheduling decisions, which equals the
  /// sum of the queries' pulls) and "sched.classified.io_bound" /
  /// "sched.classified.cpu_bound" (jobs so classified, summed over hybrid
  /// decisions), plus the "sched.pool_depth" histogram sampling the
  /// drive's pending pool at every decision (present only when the run
  /// made a decision). Recording is measurement-side only — it never
  /// touches the simulated clock.
  RegistrySnapshot scheduler;

  double total_seconds() const { return SimClock::ToSeconds(total_time); }
  double mean_elevator_depth() const { return metrics.MeanElevatorDepth(); }
};

class WorkloadExecutor {
 public:
  /// `db` and `doc` must outlive the executor; `doc` must be imported
  /// into `db`.
  WorkloadExecutor(Database* db, const ImportedDocument& doc,
                   const WorkloadOptions& options = {});

  WorkloadExecutor(const WorkloadExecutor&) = delete;
  WorkloadExecutor& operator=(const WorkloadExecutor&) = delete;

  /// Admits a parsed query. At activation it gets the QueryLifecycle
  /// ExecuteQuery runs (executor.h), stepped once per scheduling decision:
  /// predicated paths run as segments with their filter steps between
  /// them, a count()/exists() operand the summary covers is answered
  /// without navigating when the plan options allow it, and exists()
  /// stops at its first hit. Relative paths need `contexts`. `arrival` is
  /// the simulated time the query enters the system (open-system
  /// workloads); arrivals must be nondecreasing in Add() order, and a
  /// query is not admitted before its arrival. `deadline` (absolute
  /// simulated time; 0 = none) marks the query's turnaround target: a job
  /// whose remaining slack is tight is always placed inside the kHybrid
  /// scheduling window. That is the deadline's only effect; the other
  /// policies never read it. A nonzero deadline at or before the arrival
  /// is rejected as InvalidArgument.
  Status Add(const PathQuery& query, const PlanOptions& plan,
             std::vector<LogicalNode> contexts = {}, SimTime arrival = 0,
             SimTime deadline = 0);

  /// Parses `query` against the database's tag registry and admits it.
  Status Add(const std::string& query, const PlanOptions& plan,
             SimTime arrival = 0, SimTime deadline = 0);

  /// Admits a write transaction (requires WorkloadOptions.txn): at
  /// activation it opens a WriterTxn, applies writer_batch WriteOps per
  /// scheduling pull (so writes interleave with reads at pull
  /// granularity; batches amortize the commit), and commits on the pull
  /// after the last op. A commit that loses the first-committer race
  /// (Status::Aborted) is retried up to writer_max_retries times against
  /// the new head after an exponential backoff; a transaction that
  /// exhausts the budget fails individually — its neighbors keep
  /// running. Arrivals share the nondecreasing rule with Add(). Up to
  /// max_writers writers are active at once; queued writers wait,
  /// readers are unaffected.
  Status AddWrite(std::vector<WriteOp> ops, SimTime arrival = 0);

  std::size_t size() const { return jobs_.size(); }

  /// Runs every admitted query to completion and reports per-query and
  /// aggregate outcomes: a FIFO driver over the stepping calls below
  /// (BeginStepping(size()), then CanAdmit/ActivateJob in Add() order as
  /// budget and slots free up, StepOnce until nothing is active or
  /// queued, EndStepping). The executor can be reused: Run() clears the
  /// job list afterwards.
  Result<WorkloadResult> Run();

  // --- Stepping interface -----------------------------------------------
  //
  // Every driver runs the engine through these calls, one scheduling
  // decision at a time, and decides itself which job to activate when:
  // Run() admits FIFO in Add() order; a serving front-end (src/serve)
  // adds per-tenant queues, weighted fair sharing and overload
  // degradation. A driver that admits like Run() reproduces its schedule
  // byte for byte.

  /// Enters stepping mode: validates options, cold-starts the database
  /// (buffer, clock, metrics), and leaves admission to the caller. Jobs may still be Add()ed while stepping
  /// (nondecreasing arrivals). `expected_jobs` declares the workload size
  /// the driver intends to feed in: scheduling rules that depend on the
  /// total count (the hybrid window-widening point) use it, so a driver
  /// that adds jobs lazily at arrival time still reproduces Run()'s
  /// decisions. Pass 0 when unknown (the live job count is used instead).
  Status BeginStepping(std::size_t expected_jobs = 0);

  /// Returned by StepOnce when no job completed on that decision.
  static constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

  /// Activates job `index` (builds its lifecycle, which opens its first
  /// plan, and charges its footprint). The job must have arrived and not
  /// yet have been activated. A plan that fails to open fails the job
  /// individually (its result carries the status) and still returns
  /// OK — the serving loop must survive one query's bad plan.
  Status ActivateJob(std::size_t index);

  /// Re-plans a not-yet-activated job onto different plan options (the
  /// overload controller's cheaper tier: Simple-method chain or reduced
  /// queue_k). Re-prices the job's cost estimates and admission
  /// footprint, and marks its result degraded.
  Status RetierJob(std::size_t index, const PlanOptions& plan);

  /// Executes one scheduling decision over the activated jobs: picks per
  /// policy, steps the job once (a reader's lifecycle step, or a writer's
  /// op batch or commit), and accounts. Handles yields, operand
  /// transitions, and completion (including footprint release). A step
  /// that surfaces an error fails that job alone: the error lands in the
  /// job's result status and the driver keeps serving its neighbors.
  /// Returns the jobs_ index of the job that completed (or individually
  /// failed) on this decision, kNoJob otherwise. InvalidArgument when
  /// nothing is active.
  Result<std::size_t> StepOnce();

  /// Leaves stepping mode: drains orphaned prefetches and reports the run
  /// (per-query results in Add() order, makespan, metrics, scheduler
  /// snapshot). Clears the job list.
  Result<WorkloadResult> EndStepping();

  // Driver-side introspection (valid while stepping).
  std::size_t active_count() const { return run_active_.size(); }
  std::size_t footprint_used() const { return footprint_used_; }
  std::size_t footprint_budget() const { return budget_; }
  /// Whether the admission gate would admit `index` right now: a free
  /// slot, either an empty active set or room in the buffer budget for
  /// the job's footprint, and a free writer slot for a writer.
  bool CanAdmit(std::size_t index) const;
  /// The cost model's up-front estimate for the whole job (sum over its
  /// paths; 0 without stats). The DRR admission quantum currency.
  double EstimatedCost(std::size_t index) const;
  const WorkloadQueryResult& JobResult(std::size_t index) const;

 private:
  struct Job {
    // A reader's query, plan options and contexts; the query and contexts
    // move into its lifecycle at activation.
    PathQuery query;
    PlanOptions plan_options;
    std::vector<LogicalNode> contexts;
    std::uint32_t owner_id = 0;
    SimTime arrival = 0;
    /// Absolute turnaround deadline (0 = none): maps onto kHybrid
    /// window placement only, never onto correctness.
    SimTime deadline = 0;
    /// Buffer pages the job's prefetch state may occupy (admission).
    std::size_t footprint = 0;
    /// Lifecycle: set by ActivateJob and by completion.
    bool activated = false;
    bool done = false;

    // Mixed-workload state (WorkloadOptions.txn). A read job pins the
    // snapshot its plans translate through; a write job owns the open
    // writer transaction and steps through write_ops one pull at a time.
    bool is_write = false;
    std::vector<WriteOp> write_ops;
    std::size_t ops_done = 0;
    std::shared_ptr<Snapshot> snapshot;
    std::unique_ptr<WriterTxn> writer;

    // Cost-model estimates per path (kShortestRemainingCost, kHybrid and
    // cost-derived admission footprints).
    std::vector<double> path_costs;
    std::vector<double> path_cards;
    std::vector<double> path_clusters;
    /// Max estimated clusters touched by any operand path (0 = no stats).
    double clusters_touched = 0.0;

    // Run state. A reader's lifecycle lives from activation to
    // completion. Its EXPLAIN windows include time spent pulled away to
    // other queries; per-operator attribution comes from the plan
    // profiler instead.
    std::unique_ptr<QueryLifecycle> lifecycle;
    std::uint64_t last_pull = 0;  // scheduler decision stamp (fair ties)
    // Classification window (kHybrid): snapshots of the job's pull count
    // and the plan's yield/block counters at the window start. Reset
    // every kClassifyWindow pulls and whenever a step ends a plan or an
    // operand.
    std::uint64_t window_pulls0 = 0;
    std::uint64_t window_yields0 = 0;
    std::uint64_t window_blocks0 = 0;
    WorkloadQueryResult result;
  };

  /// Computes the cost-model estimates (per-path costs, cardinalities,
  /// clusters) for the job's current plan options. Shared by Add and
  /// RetierJob.
  void ComputeEstimates(Job* job) const;

  /// Completion bookkeeping shared by the success and failure exits of
  /// StepOnce: stamps finished_at, takes count, nodes and EXPLAIN from the
  /// lifecycle, frees it and the footprint, and removes the job from the
  /// active set.
  void FinishJob(std::size_t active_pos);

  /// Admission footprint of `job`: the static prefetch-state bound,
  /// tightened by the cost model's clusters_touched estimate when
  /// document statistics are available.
  std::size_t FootprintFor(const Job& job) const;

  /// Activation: a writer opens its transaction; a reader opens its
  /// snapshot (txn only), builds its lifecycle and starts it.
  Status StartJob(Job* job);

  /// Restarts an active reader's kHybrid classification window at its
  /// pull count and its open plan's yield/block counters (zero without
  /// one).
  static void RestartWindow(Job* job);

  /// Applies one WriteOp through the job's open writer transaction
  /// (insert or last-child-by-tag delete), bumping the result counters.
  Status ApplyWriteOp(Job* job, const WriteOp& op);

  /// What an active `job` still has to spend of `per_path`, its per-path
  /// cost or cluster estimates: completed operands contribute zero, and
  /// the current one is discounted by result-cardinality progress
  /// (cardinality clamped to ≥ 1, so degenerate estimates still shrink as
  /// output is produced). 0 without document statistics.
  double Remaining(const Job& job, const std::vector<double>& per_path) const;

  /// kHybrid classification. A job is I/O-bound when it has prefetches
  /// in flight and either its recent pulls mostly ended waiting on the
  /// drive (yield/block ratio over the classification window) or the
  /// cost model says it must still load more clusters than it has on
  /// order — pulling it keeps the elevator pool deep. Everything else,
  /// a job with no plan open included, is CPU-bound and competes on
  /// shortest remaining cost.
  bool IoBound(const Job& job) const;

  /// Round-robin over `candidates` (positions into `active`) by stable
  /// job id: picks the smallest job index greater than *cursor, wrapping
  /// to the smallest overall, and advances *cursor. Stable ids make the
  /// rotation immune to active-set reshuffling — every candidate is
  /// served within one rotation even as jobs finish or join.
  std::size_t RotatePick(const std::vector<std::size_t>& active,
                         const std::vector<std::size_t>& candidates,
                         std::size_t* cursor) const;

  /// Shortest-remaining-cost over `candidates` (positions into
  /// `active`); ties go to the least recently pulled job.
  std::size_t SjfPick(const std::vector<std::size_t>& active,
                      const std::vector<std::size_t>& candidates) const;

  /// Picks the next active job to pull, per policy. `active` holds
  /// indices into jobs_; returns an index into `active`.
  std::size_t PickNext(const std::vector<std::size_t>& active,
                       std::uint64_t decisions);

  /// Deadline urgency: the job's remaining slack no longer covers its
  /// estimated remaining cost (with headroom). Urgent jobs stay inside
  /// the kHybrid window whatever their cost rank.
  bool DeadlineUrgent(const Job& job) const;

  Database* db_;
  const ImportedDocument* doc_;
  WorkloadOptions options_;
  std::vector<Job> jobs_;
  /// Run/stepping state: the active set (jobs_ indices), the decision
  /// stamp, and the yield streak.
  std::vector<std::size_t> run_active_;
  std::uint64_t run_decisions_ = 0;
  std::size_t consecutive_yields_ = 0;
  std::size_t budget_ = 0;
  bool stepping_ = false;
  /// Workload size the count-relative scheduling rules divide by: the
  /// driver-declared expected total (jobs may not all exist yet; Run()
  /// declares its job count).
  std::size_t n_total_ = 0;
  /// Aggregate admission footprint of the active set.
  std::size_t footprint_used_ = 0;
  /// Stable-id rotation cursors (jobs_ index of the last pick; SIZE_MAX
  /// before the first): one for kRoundRobin, one for kHybrid's I/O set.
  std::size_t rr_cursor_ = static_cast<std::size_t>(-1);
  std::size_t hybrid_io_cursor_ = static_cast<std::size_t>(-1);
  /// Jobs finished in the current run (widens kHybrid's window).
  std::size_t completed_ = 0;
  /// Write transactions currently active (WorkloadOptions.txn); the
  /// admission gate holds this at or below max_writers.
  std::size_t writers_active_ = 0;
  /// Scheduler observability for the current run (reset by
  /// BeginStepping), reported in WorkloadResult::scheduler: the drive's
  /// pending pool at each decision, and the jobs kHybrid classified.
  Histogram pool_depth_;
  std::uint64_t classified_io_ = 0;
  std::uint64_t classified_cpu_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_COMPILER_WORKLOAD_EXECUTOR_H_
