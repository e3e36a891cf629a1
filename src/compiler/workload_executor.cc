#include "compiler/workload_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "storage/disk.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

/// kHybrid classification window: the yield/block ratio is evaluated
/// over at most this many recent pulls of a job, so classification
/// follows phase changes (I/O wave -> resident consumption) instead of
/// averaging over the job's whole life.
constexpr std::uint64_t kClassifyWindow = 16;
/// Minimum pulls in the current window before the ratio is trusted;
/// younger windows classify on the cost model's remaining-clusters
/// estimate alone.
constexpr std::uint64_t kClassifyMinPulls = 4;

/// kHybrid scheduling-window breadth while the cheap half of the
/// workload drains: only the kHybridBreadth cheapest-remaining jobs may
/// run. Breadth 1 deliberately serializes the cheap jobs — they overlap
/// heavily in the pages they touch, so running them back-to-back turns
/// the second job's reads into buffer hits, which beats splitting the
/// elevator between them (measured: two-wide costs ~2x the turnaround of
/// back-to-back on the XMark mix). Once half the jobs have completed the
/// window opens to the whole active set and the remaining expensive,
/// I/O-bound jobs run round-robin so their overlapping scans merge in
/// flight and the elevator pool stays deep.
constexpr std::size_t kHybridBreadth = 1;

/// Buffer pages a plan's prefetch/speculative state may occupy while the
/// query is active: XSchedule keeps its in-flight reads (queue_k-ish)
/// plus the pinned current cluster; XScan and Simple touch one page at a
/// time.
std::size_t EstimateFootprint(const PlanOptions& plan) {
  switch (plan.kind) {
    case PlanKind::kXSchedule:
      return plan.queue_k + 2;
    case PlanKind::kXScan:
    case PlanKind::kSimple:
      return 2;
  }
  return 2;
}

/// Deadline-urgency headroom: a job is urgent once its remaining slack no
/// longer covers this multiple of its estimated remaining cost. Two keeps
/// a margin for estimate error and queueing ahead of the deadline instead
/// of reacting only when it is already lost.
constexpr double kDeadlineHeadroom = 2.0;

/// Admission footprint of a write transaction: copy-on-write touches one
/// base page and one shadow page at a time (both pinned across the copy),
/// plus slack for the chain page a gapped insert may redistribute into.
constexpr std::size_t kWriterFootprint = 4;

/// Fraction of the buffer pool the admission controller hands out to the
/// active queries' aggregate prefetch/speculative footprint. The head of
/// the admission queue is always admitted, even if its footprint alone
/// exceeds the budget (a lone query must run).
constexpr double kBufferBudgetFraction = 0.75;

/// Base backoff before an aborted writer's first retry; doubles per retry
/// (capped at 64x). Simulated time, charged via the clock, so backed-off
/// writers yield the window to their conflictors.
constexpr SimTime kWriterRetryBackoff = 100 * kSimMicrosecond;

}  // namespace

Status ValidateWorkloadOptions(const WorkloadOptions& options) {
  if (options.max_writers == 0) {
    return Status::InvalidArgument(
        "max_writers must be at least 1 (0 would never admit a writer)");
  }
  if (options.writer_batch == 0) {
    return Status::InvalidArgument(
        "writer_batch must be at least 1 (a pull must make progress)");
  }
  return Status::OK();
}

const char* WorkloadPolicyName(WorkloadPolicy policy) {
  switch (policy) {
    case WorkloadPolicy::kRoundRobin:
      return "round-robin";
    case WorkloadPolicy::kShortestRemainingCost:
      return "shortest-remaining-cost";
    case WorkloadPolicy::kHybrid:
      return "hybrid";
  }
  NAVPATH_UNREACHABLE();
}

WorkloadExecutor::WorkloadExecutor(Database* db, const ImportedDocument& doc,
                                   const WorkloadOptions& options)
    : db_(db), doc_(&doc), options_(options) {
  NAVPATH_CHECK(db != nullptr);
}

Status WorkloadExecutor::Add(const PathQuery& query, const PlanOptions& plan,
                             std::vector<LogicalNode> contexts,
                             SimTime arrival, SimTime deadline) {
  if (query.paths.empty()) {
    return Status::InvalidArgument("query without paths");
  }
  for (const LocationPath& path : query.paths) {
    if (!path.absolute && contexts.empty()) {
      return Status::InvalidArgument("relative path without context nodes");
    }
  }
  if (!jobs_.empty() && arrival < jobs_.back().arrival) {
    return Status::InvalidArgument(
        "arrivals must be nondecreasing in Add() order");
  }
  if (deadline != 0 && deadline <= arrival) {
    return Status::InvalidArgument("deadline not after arrival");
  }
  Job job;
  job.query = query;
  job.plan_options = plan;
  job.contexts = std::move(contexts);
  job.arrival = arrival;
  job.deadline = deadline;
  job.result.arrival = arrival;
  // Owner 0 is reserved for standalone execution, so merges are only ever
  // attributed to genuine cross-query interest.
  job.owner_id = static_cast<std::uint32_t>(jobs_.size()) + 1;
  ComputeEstimates(&job);
  job.footprint = FootprintFor(job);
  jobs_.push_back(std::move(job));
  return Status::OK();
}

Status WorkloadExecutor::Add(const std::string& query,
                             const PlanOptions& plan, SimTime arrival,
                             SimTime deadline) {
  NAVPATH_ASSIGN_OR_RETURN(const PathQuery parsed,
                           ParseQuery(query, db_->tags()));
  return Add(parsed, plan, {}, arrival, deadline);
}

Status WorkloadExecutor::AddWrite(std::vector<WriteOp> ops,
                                  SimTime arrival) {
  if (options_.txn == nullptr) {
    return Status::InvalidArgument(
        "write transactions require WorkloadOptions.txn");
  }
  if (ops.empty()) {
    return Status::InvalidArgument("write transaction without operations");
  }
  if (!jobs_.empty() && arrival < jobs_.back().arrival) {
    return Status::InvalidArgument(
        "arrivals must be nondecreasing in Add() order");
  }
  Job job;
  job.is_write = true;
  job.write_ops = std::move(ops);
  job.arrival = arrival;
  job.result.arrival = arrival;
  job.result.is_write = true;
  job.owner_id = static_cast<std::uint32_t>(jobs_.size()) + 1;
  job.footprint = kWriterFootprint;
  jobs_.push_back(std::move(job));
  return Status::OK();
}

void WorkloadExecutor::ComputeEstimates(Job* job) const {
  job->path_costs.clear();
  job->path_cards.clear();
  job->path_clusters.clear();
  job->clusters_touched = 0.0;
  if (options_.stats == nullptr) return;
  const PathSummary* summary =
      options_.summary ? db_->summary() : nullptr;
  for (const LocationPath& path : job->query.paths) {
    const PathEstimate estimate =
        EstimatePath(*options_.stats, path, summary);
    const PlanCosts costs = EstimatePlanCosts(
        *options_.stats, estimate, path.length(),
        db_->options().disk_model, db_->costs());
    double cost = costs.simple;
    if (job->plan_options.kind == PlanKind::kXSchedule) {
      cost = costs.xschedule;
    }
    if (job->plan_options.kind == PlanKind::kXScan) cost = costs.xscan;
    job->path_costs.push_back(cost);
    job->path_cards.push_back(estimate.result_cardinality);
    job->path_clusters.push_back(estimate.clusters_touched);
    job->clusters_touched =
        std::max(job->clusters_touched, estimate.clusters_touched);
  }
}

std::size_t WorkloadExecutor::FootprintFor(const Job& job) const {
  if (job.is_write) return kWriterFootprint;
  const std::size_t static_bound = EstimateFootprint(job.plan_options);
  // A query whose whole result set fits in few clusters can never keep
  // more pages than that in flight, no matter how large its prefetch
  // window is configured; charge it only what the cost model says it can
  // use. The derived bound only tightens the static one, so stats never
  // make admission more conservative than before.
  if (!options_.footprint_from_stats ||
      job.plan_options.kind != PlanKind::kXSchedule ||
      job.clusters_touched <= 0.0) {
    return static_bound;
  }
  const std::size_t derived =
      static_cast<std::size_t>(std::ceil(job.clusters_touched)) + 2;
  return std::min(static_bound, std::max<std::size_t>(3, derived));
}

Status WorkloadExecutor::StartJob(Job* job) {
  if (job->is_write) {
    // Activation of a write transaction: open the writer against the
    // current version. The ops themselves are applied writer_batch per
    // pull (see StepOnce), so writes interleave with reads at pull
    // granularity.
    job->writer = options_.txn->BeginWrite();
    job->result.snapshot_seq = job->writer->base_seq();
    ++writers_active_;
    return Status::OK();
  }
  if (options_.txn != nullptr) {
    // Snapshot isolation: the query pins one committed version at
    // activation and every path of the query reads it, no matter what
    // commits mid-flight. Opening a snapshot is a host-side operation
    // (no simulated-clock charges), and a genesis snapshot translates
    // identically, so a zero-writer workload schedules byte for byte
    // like one without a TxnManager.
    job->snapshot = options_.txn->OpenSnapshot();
    job->result.snapshot_seq = job->snapshot->seq();
    job->plan_options.translator = job->snapshot.get();
    job->plan_options.snapshot_summary = job->snapshot->summary();
  }
  // A snapshot-pinned query plans over its version's document (root and
  // scan bounds may differ from the canonical one after appends).
  const ImportedDocument& doc =
      job->snapshot != nullptr ? job->snapshot->doc() : *doc_;
  ExecuteOptions exec;
  exec.plan = job->plan_options;
  exec.contexts = std::move(job->contexts);
  exec.collect_nodes = options_.collect_nodes;
  exec.explain = options_.explain;
  exec.stats = options_.stats;
  job->lifecycle = std::make_unique<QueryLifecycle>(
      db_, doc, std::move(job->query), std::move(exec), job->owner_id,
      /*cooperative=*/true);
  return job->lifecycle->Start();
}

void WorkloadExecutor::RestartWindow(Job* job) {
  const PlanSharedState* shared = job->lifecycle->shared();
  job->window_pulls0 = job->result.pulls;
  job->window_yields0 = shared != nullptr ? shared->io_yields : 0;
  job->window_blocks0 = shared != nullptr ? shared->io_blocks : 0;
}

Status WorkloadExecutor::ApplyWriteOp(Job* job, const WriteOp& op) {
  if (op.kind == WriteOp::Kind::kInsert) {
    NAVPATH_ASSIGN_OR_RETURN(
        const InsertedNode inserted,
        job->writer->updater()->InsertElement(op.parent, op.after, op.tag,
                                              op.text, op.attrs));
    (void)inserted;
    ++job->result.writes_applied;
    return Status::OK();
  }
  // kDelete: resolve the last child of `parent` tagged `tag` through the
  // writer's own translator (ops earlier in this transaction are
  // visible) and delete its whole subtree. The pages scanned to pick the
  // victim are decision inputs like any other read, so they join the
  // writer's conflict-validation set.
  WriterTxn* writer = job->writer.get();
  CrossClusterCursor cursor(
      db_, writer->translator(),
      [writer](PageId page) { writer->NoteReadDependency(page); });
  NAVPATH_RETURN_NOT_OK(cursor.Start(Axis::kChild, op.parent));
  NodeID victim = kInvalidNodeID;
  LogicalNode node;
  for (;;) {
    NAVPATH_ASSIGN_OR_RETURN(const bool more, cursor.Next(&node));
    if (!more) break;
    if (node.tag == op.tag) victim = node.id;
  }
  if (victim == kInvalidNodeID) {
    return Status::InvalidArgument(
        "delete op: parent has no child with the requested tag");
  }
  NAVPATH_RETURN_NOT_OK(job->writer->updater()->DeleteSubtree(victim));
  ++job->result.deletes_applied;
  return Status::OK();
}

double WorkloadExecutor::Remaining(
    const Job& job, const std::vector<double>& per_path) const {
  if (per_path.empty()) return 0.0;
  const std::size_t operand = job.lifecycle->operand();
  double remaining = 0.0;
  // Completed operands (i < operand) contribute zero by construction;
  // the current one is discounted by produced-output progress with its
  // cardinality estimate clamped to >= 1 (EstimatedProgress), so
  // low-cardinality estimates shrink with progress instead of freezing
  // SJF into stamp-order tie-breaking.
  for (std::size_t i = operand; i < per_path.size(); ++i) {
    double share = per_path[i];
    if (i == operand) {
      share *= 1.0 - EstimatedProgress(job.lifecycle->operand_results(),
                                       job.path_cards[i]);
    }
    remaining += share;
  }
  return remaining;
}

bool WorkloadExecutor::IoBound(const Job& job) const {
  // Writers fix pages synchronously (no operator tree, no prefetches);
  // they compete in the CPU/SJF half, where their empty cost vector
  // ranks them cheapest — short transactions drain first.
  if (job.is_write) return false;
  const std::size_t pending = db_->buffer()->PendingFor(job.owner_id);
  if (pending == 0) return false;  // nothing in flight: pure CPU work
  // No plan open: the next step answers from the summary or filters a
  // node, CPU work either way.
  const PlanSharedState* shared = job.lifecycle->shared();
  if (shared == nullptr) return false;
  const std::uint64_t pulls = job.result.pulls - job.window_pulls0;
  const std::uint64_t waits = (shared->io_yields - job.window_yields0) +
                              (shared->io_blocks - job.window_blocks0);
  // Recent pulls mostly ended waiting on the drive: the job's progress
  // is gated by I/O, not by how often the scheduler runs it.
  if (pulls >= kClassifyMinPulls && 2 * waits >= pulls) return true;
  // More clusters still to load than it has on order: pulling it makes
  // it submit, deepening the elevator pool. A job whose in-flight set
  // already covers its remaining clusters is just consuming (CPU-bound).
  return Remaining(job, job.path_clusters) > static_cast<double>(pending);
}

std::size_t WorkloadExecutor::RotatePick(
    const std::vector<std::size_t>& active,
    const std::vector<std::size_t>& candidates, std::size_t* cursor) const {
  NAVPATH_DCHECK(!candidates.empty());
  // `active` is in admission order (ascending job index), so the first
  // candidate past the cursor is the rotation's next stop; wrap to the
  // first candidate when the cursor is past them all.
  std::size_t pick = candidates.front();
  for (const std::size_t pos : candidates) {
    if (active[pos] > *cursor) {
      pick = pos;
      break;
    }
  }
  *cursor = active[pick];
  return pick;
}

std::size_t WorkloadExecutor::SjfPick(
    const std::vector<std::size_t>& active,
    const std::vector<std::size_t>& candidates) const {
  NAVPATH_DCHECK(!candidates.empty());
  std::size_t best = candidates.front();
  double best_cost = std::numeric_limits<double>::infinity();
  std::uint64_t best_stamp = std::numeric_limits<std::uint64_t>::max();
  for (const std::size_t pos : candidates) {
    const Job& job = jobs_[active[pos]];
    const double cost = Remaining(job, job.path_costs);
    if (cost < best_cost ||
        (cost == best_cost && job.last_pull < best_stamp)) {
      best = pos;
      best_cost = cost;
      best_stamp = job.last_pull;
    }
  }
  return best;
}

std::size_t WorkloadExecutor::PickNext(
    const std::vector<std::size_t>& active, std::uint64_t decisions) {
  NAVPATH_DCHECK(!active.empty());
  // Measurement-side observability; never touches the simulated clock.
  pool_depth_.Record(db_->disk()->pending_requests());
  switch (options_.policy) {
    case WorkloadPolicy::kRoundRobin: {
      // Rotate over stable job ids, not positions: `decisions % size`
      // re-aligns whenever the active set shrinks and can repeatedly
      // skip the same job. With ids, every active job is pulled within
      // one rotation no matter how the set reshuffles.
      std::size_t pick = 0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (active[i] > rr_cursor_) {
          pick = i;
          break;
        }
      }
      rr_cursor_ = active[pick];
      return pick;
    }
    case WorkloadPolicy::kShortestRemainingCost: {
      std::vector<std::size_t> all(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) all[i] = i;
      return SjfPick(active, all);
    }
    case WorkloadPolicy::kHybrid: {
      // Restrict scheduling to the cheapest-remaining jobs and widen the
      // window as jobs finish. The drive's SSTF elevator serves whatever
      // requests are pending, so the only way to carry SJF's cheap-first
      // completion order to the I/O side is to bound the *breadth* of
      // queries allowed to have reads in flight: a job outside the
      // window is never pulled, hence never submits. Two slots keep the
      // pool deep (a single fresh XSchedule already pools ~queue_k
      // requests; the near-done window head rarely has many), and every
      // completion adds a slot, so the expensive endgame runs at full
      // breadth — round-robin pool depth and cross-query merges. Without
      // document statistics there is no cost signal to rank by and the
      // window covers the whole active set.
      std::vector<std::size_t> ranked(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) ranked[i] = i;
      if (options_.stats != nullptr) {
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::size_t a, std::size_t b) {
                    const Job& ja = jobs_[active[a]];
                    const Job& jb = jobs_[active[b]];
                    const double ca = Remaining(ja, ja.path_costs);
                    const double cb = Remaining(jb, jb.path_costs);
                    if (ca != cb) return ca < cb;
                    return active[a] < active[b];
                  });
        // Narrow until half the submitted workload has completed, then
        // open to the whole active set. The total-count rule also turned
        // out to be the right one for open systems: making the window
        // relative to the live active set (or dropping it for arrivals)
        // flip-flops between narrow and full under backlog, leaving a
        // flooded elevator competing against a serialized cheap job —
        // measurably worse than either parent policy.
        const std::size_t window = completed_ * 2 < std::max(n_total_,
                                                             jobs_.size())
                                       ? kHybridBreadth
                                       : active.size();
        const std::size_t cut = std::min(active.size(), window);
        // Deadline-urgent jobs stay inside the window regardless of rank:
        // a job whose slack no longer covers its remaining cost cannot
        // afford to be parked outside the breadth bound. Without
        // deadlines (the default) this appends nothing.
        std::vector<std::size_t> kept(ranked.begin(),
                                      ranked.begin() +
                                          static_cast<std::ptrdiff_t>(cut));
        for (std::size_t i = cut; i < ranked.size(); ++i) {
          if (DeadlineUrgent(jobs_[active[ranked[i]]])) {
            kept.push_back(ranked[i]);
          }
        }
        ranked = std::move(kept);
      }
      // Inside the window, split by what gates each job's progress: the
      // I/O-bound jobs rotate (their pulls are cheap — they submit and
      // yield), the CPU-bound ones compete on shortest remaining cost.
      // Alternating decisions interleave the two at pull granularity.
      std::vector<std::size_t> io, cpu;
      for (const std::size_t pos : ranked) {
        (IoBound(jobs_[active[pos]]) ? io : cpu).push_back(pos);
      }
      classified_io_ += io.size();
      classified_cpu_ += cpu.size();
      const bool serve_io =
          !io.empty() && (cpu.empty() || decisions % 2 == 0);
      if (serve_io) return RotatePick(active, io, &hybrid_io_cursor_);
      return SjfPick(active, cpu);
    }
  }
  NAVPATH_UNREACHABLE();
}

Status WorkloadExecutor::BeginStepping(std::size_t expected_jobs) {
  NAVPATH_RETURN_NOT_OK(ValidateWorkloadOptions(options_));
  NAVPATH_RETURN_NOT_OK(db_->ResetMeasurement());
  stepping_ = true;
  n_total_ = expected_jobs;
  pool_depth_.Reset();
  classified_io_ = 0;
  classified_cpu_ = 0;
  rr_cursor_ = static_cast<std::size_t>(-1);
  hybrid_io_cursor_ = static_cast<std::size_t>(-1);
  completed_ = 0;
  run_active_.clear();
  run_decisions_ = 0;
  consecutive_yields_ = 0;
  footprint_used_ = 0;
  writers_active_ = 0;
  budget_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(db_->buffer()->capacity()) *
             kBufferBudgetFraction));
  return Status::OK();
}

void WorkloadExecutor::FinishJob(std::size_t active_pos) {
  Job& job = jobs_[run_active_[active_pos]];
  job.result.finished_at = db_->clock()->now();
  if (job.lifecycle != nullptr) {
    job.result.count = job.lifecycle->count();
    job.result.nodes = std::move(*job.lifecycle->mutable_nodes());
    job.result.explain = job.lifecycle->explain();
    if (job.result.explain != nullptr) {
      job.result.explain->degraded = job.result.degraded;
    }
    // Free it, not just its plan: a finished job must not hold a plan or
    // a dedup table in jobs_ for the rest of the run.
    job.lifecycle.reset();
  }
  // Transaction state goes after the lifecycle (its plans' translator
  // points into the snapshot). Dropping the snapshot unpins its version for
  // reclamation; a writer still open here (insert failure path) was
  // already aborted. The writer slot frees for the next queued writer.
  job.snapshot.reset();
  job.writer.reset();
  if (job.is_write) --writers_active_;
  job.done = true;
  ++completed_;
  footprint_used_ -= job.footprint;
  run_active_.erase(run_active_.begin() +
                    static_cast<std::ptrdiff_t>(active_pos));
}

Result<std::size_t> WorkloadExecutor::StepOnce() {
  if (!stepping_) {
    return Status::InvalidArgument("not in stepping mode");
  }
  if (run_active_.empty()) {
    return Status::InvalidArgument("nothing active to pull");
  }
  const std::size_t pick = PickNext(run_active_, run_decisions_);
  const std::size_t job_index = run_active_[pick];
  Job& job = jobs_[job_index];
  if (options_.on_pull) options_.on_pull(job_index, run_active_.size());
  // One scheduling decision per pull: picking the query is a set probe
  // over the active list, not free.
  db_->clock()->ChargeCpu(db_->costs().set_op);
  job.last_pull = ++run_decisions_;
  ++job.result.pulls;

  if (job.is_write) {
    // A write transaction has no operator tree: each pull applies a
    // batch of WriteOps (copy-on-write fixes charge the clock through
    // the buffer; writer_batch == 1 is the historical one-op pull), and
    // the pull after the last op commits — group commit amortizes the
    // publish over the batch. Failures fail this job alone, exactly like
    // a reader's bad pull; a lost first-committer race retries below. A
    // writer pull advances the clock (synchronous fixes), so yielded
    // readers get a fresh round before anyone is allowed to block.
    consecutive_yields_ = 0;
    if (job.ops_done < job.write_ops.size()) {
      for (std::size_t applied = 0;
           applied < options_.writer_batch &&
           job.ops_done < job.write_ops.size();
           ++applied) {
        const Status op_status =
            ApplyWriteOp(&job, job.write_ops[job.ops_done]);
        if (!op_status.ok()) {
          job.result.status = op_status;
          (void)job.writer->Abort();
          FinishJob(pick);
          return job_index;
        }
        ++job.ops_done;
      }
      return kNoJob;
    }
    const Status committed = job.writer->Commit();
    if (!committed.ok()) {
      if (committed.IsAborted() &&
          job.result.aborts < options_.writer_max_retries) {
        // Optimistic retry: back off in simulated time (exponential,
        // capped at 64x, so conflictors get the window), re-begin
        // against the new head, and re-apply the ops from scratch — the
        // aborted attempt's work was rolled back with its shadow pages.
        // A retried writer keeps its job: it never re-enters admission,
        // so overload control cannot re-tier it mid-flight.
        ++job.result.aborts;
        NAVPATH_DCHECK(!job.result.degraded);
        const unsigned shift = static_cast<unsigned>(
            std::min<std::uint64_t>(job.result.aborts - 1, 6));
        db_->clock()->WaitUntil(db_->clock()->now() +
                                (kWriterRetryBackoff << shift));
        job.writer = options_.txn->BeginWrite();
        job.result.snapshot_seq = job.writer->base_seq();
        job.ops_done = 0;
        job.result.writes_applied = 0;
        job.result.deletes_applied = 0;
        return kNoJob;
      }
      job.result.status = committed;
      FinishJob(pick);
      return job_index;
    }
    job.result.commit_seq = job.writer->commit_seq();
    FinishJob(pick);
    return job_index;
  }

  // Slide the classification window once it is full, so the hybrid
  // policy judges a job on its recent behavior, not its whole history.
  if (job.result.pulls - job.window_pulls0 >= kClassifyWindow) {
    RestartWindow(&job);
  }

  // An I/O-bound query yields instead of blocking while siblings still
  // have CPU work — its pending reads keep pooling at the disk. Once a
  // full round of active queries yielded, everyone is I/O bound: let
  // this one block, serving the deepest possible pool.
  if (PlanSharedState* shared = job.lifecycle->shared()) {
    shared->yield_on_block = run_active_.size() > 1 &&
                             consecutive_yields_ < run_active_.size();
  }

  Result<QueryLifecycle::Step> stepped = job.lifecycle->Advance();
  if (!stepped.ok()) {
    // Per-query fault isolation: a step that surfaces an error (e.g.
    // Status::Corruption from a permanently bad page after retries)
    // fails this query alone. Its neighbors and the serving loop keep
    // running; the error is reported in the query's result status.
    job.result.status = stepped.status();
    FinishJob(pick);
    return job_index;
  }
  const QueryLifecycle::Step step = *stepped;
  if (step == QueryLifecycle::Step::kYield) {
    ++consecutive_yields_;
    return kNoJob;
  }
  consecutive_yields_ = 0;
  // A new plan is judged on its own pulls.
  if (step == QueryLifecycle::Step::kOperandDone) RestartWindow(&job);
  if (step != QueryLifecycle::Step::kQueryDone) return kNoJob;
  // Free the lifecycle and footprint, and let the driver top the active
  // set back up.
  FinishJob(pick);
  return job_index;
}

Result<WorkloadResult> WorkloadExecutor::EndStepping() {
  if (!stepping_) {
    return Status::InvalidArgument("not in stepping mode");
  }
  stepping_ = false;
  // Drain speculative reads no query consumed (cross-query completion
  // stealing and exists()'s early stop leave a closed plan's prefetches
  // in flight), so the database is reusable and the device-busy tail is
  // accounted for.
  while (db_->buffer()->HasPrefetchInFlight()) {
    (void)db_->buffer()->WaitAnyPrefetch();
  }

  WorkloadResult result;
  for (Job& job : jobs_) {
    result.queries.push_back(std::move(job.result));
  }
  jobs_.clear();
  // BeginStepping's cold start zeroed the clock and the metrics, so the
  // readings are the run's own.
  result.total_time = db_->clock()->now();
  result.cpu_time = db_->clock()->cpu_time();
  result.metrics = *db_->metrics();
  // Every decision is one pull of one job, so run_decisions_ is the
  // sched.decisions count.
  result.scheduler.counters = {
      {"sched.classified.cpu_bound", classified_cpu_},
      {"sched.classified.io_bound", classified_io_},
      {"sched.decisions", run_decisions_}};
  if (pool_depth_.count() > 0) {
    result.scheduler.histograms.push_back(
        Summarize("sched.pool_depth", pool_depth_));
  }
  return result;
}

Result<WorkloadResult> WorkloadExecutor::Run() {
  if (jobs_.empty()) {
    return Status::InvalidArgument("empty workload");
  }
  NAVPATH_RETURN_NOT_OK(BeginStepping(size()));

  // FIFO admission in Add() order: activate arrived jobs while the gate
  // admits the head.
  std::size_t next = 0;
  const auto admit = [&]() -> Status {
    while (next < size() && jobs_[next].arrival <= db_->clock()->now() &&
           CanAdmit(next)) {
      NAVPATH_RETURN_NOT_OK(ActivateJob(next++));
    }
    return Status::OK();
  };
  NAVPATH_RETURN_NOT_OK(admit());
  while (active_count() > 0 || next < size()) {
    if (active_count() == 0) {
      // Open system, idle gap: nothing to run until the next arrival.
      db_->clock()->WaitUntil(jobs_[next].arrival);
      NAVPATH_RETURN_NOT_OK(admit());
      continue;
    }
    // Open-system arrivals join the active set mid-run; the gate keeps
    // closed workloads (every arrival == 0) on the exact admission
    // sequence they had before arrivals existed.
    if (next < size() && jobs_[next].arrival != 0 &&
        jobs_[next].arrival <= db_->clock()->now()) {
      NAVPATH_RETURN_NOT_OK(admit());
    }
    NAVPATH_ASSIGN_OR_RETURN(const std::size_t done, StepOnce());
    if (done != kNoJob) NAVPATH_RETURN_NOT_OK(admit());
  }
  return EndStepping();
}

Status WorkloadExecutor::ActivateJob(std::size_t index) {
  if (!stepping_) {
    return Status::InvalidArgument("not in stepping mode");
  }
  if (index >= jobs_.size()) {
    return Status::InvalidArgument("no such job");
  }
  Job& job = jobs_[index];
  if (job.activated || job.done) {
    return Status::InvalidArgument("job already activated");
  }
  if (job.arrival > db_->clock()->now()) {
    return Status::InvalidArgument("job has not arrived yet");
  }
  if (job.is_write && writers_active_ >= options_.max_writers) {
    return Status::InvalidArgument(
        "writer concurrency limit reached (max_writers writers active)");
  }
  job.activated = true;
  const Status started = StartJob(&job);
  job.result.admitted_at = db_->clock()->now();
  footprint_used_ += job.footprint;
  // Keep the active set ascending by job id: the rotation picks
  // (kRoundRobin, hybrid I/O set) rely on that order for fairness.
  const auto pos = run_active_.insert(
      std::lower_bound(run_active_.begin(), run_active_.end(), index),
      index);
  if (!started.ok()) {
    // A plan that fails to open fails its query alone; the workload and
    // the serving loop keep running (per-query status isolation).
    job.result.status = started;
    FinishJob(static_cast<std::size_t>(pos - run_active_.begin()));
  }
  return Status::OK();
}

Status WorkloadExecutor::RetierJob(std::size_t index,
                                   const PlanOptions& plan) {
  if (!stepping_) {
    return Status::InvalidArgument("not in stepping mode");
  }
  if (index >= jobs_.size()) {
    return Status::InvalidArgument("no such job");
  }
  Job& job = jobs_[index];
  // Writers are rejected before the lifecycle check: a write transaction
  // has no plan tier to degrade to in ANY state — in particular, one
  // that aborted optimistically and is retrying is still activated, and
  // overload control must get the write-specific error for it rather
  // than a message implying an inactive writer could be re-tiered.
  if (job.is_write) {
    return Status::InvalidArgument(
        "write transactions have no plan tier to degrade to");
  }
  if (job.activated || job.done) {
    return Status::InvalidArgument(
        "cannot re-tier a job that already started");
  }
  job.plan_options = plan;
  ComputeEstimates(&job);
  job.footprint = FootprintFor(job);
  job.result.degraded = true;
  return Status::OK();
}

bool WorkloadExecutor::CanAdmit(std::size_t index) const {
  NAVPATH_DCHECK(index < jobs_.size());
  const Job& job = jobs_[index];
  const bool have_slot = options_.max_concurrent == 0 ||
                         run_active_.size() < options_.max_concurrent;
  const bool fits =
      run_active_.empty() || footprint_used_ + job.footprint <= budget_;
  // Writer admission (head-of-line): a queued writer waits until the
  // active-writer count drops under max_writers.
  const bool writer_ok =
      !job.is_write || writers_active_ < options_.max_writers;
  return have_slot && fits && writer_ok;
}

double WorkloadExecutor::EstimatedCost(std::size_t index) const {
  NAVPATH_DCHECK(index < jobs_.size());
  double total = 0.0;
  for (const double cost : jobs_[index].path_costs) total += cost;
  return total;
}

const WorkloadQueryResult& WorkloadExecutor::JobResult(
    std::size_t index) const {
  NAVPATH_DCHECK(index < jobs_.size());
  return jobs_[index].result;
}

bool WorkloadExecutor::DeadlineUrgent(const Job& job) const {
  if (job.deadline == 0) return false;
  const SimTime now = db_->clock()->now();
  if (now >= job.deadline) return true;
  const double slack = static_cast<double>(job.deadline - now);
  return slack < kDeadlineHeadroom * Remaining(job, job.path_costs);
}

}  // namespace navpath
