// Always-on serving layer over the multi-query workload executor.
//
// The paper prices every plan before it runs; a serving system uses those
// same prices *at admission time*. This module is the admission front-end
// the ROADMAP names around the open-system Poisson mode: per-tenant
// bounded queues with weighted fair sharing (deficit round-robin on
// estimated cost), per-query deadlines that keep an urgent query inside
// the kHybrid scheduling window (their only effect; other policies ignore
// them), and an overload controller with three explicit responses instead
// of unbounded queueing:
//
//   degrade — re-plan queued queries onto a cheaper tier (Simple-method
//             chain or reduced-window XSchedule, priced by the cost
//             model's ChooseDegradedTier) before activation; reported in
//             EXPLAIN ANALYZE and the query's result,
//   shed    — reject at the queue with Status::ResourceExhausted carrying
//             the tenant's current queue occupancy and fair-share budget,
//   recover — hysteresis back to full-fidelity plans and FIFO admission
//             once pressure drains.
//
// While the controller reads "normal", admission is the executor's own
// global FIFO with head-of-line blocking, driven through the stepping
// interface — the same CanAdmit gate, activation and pull loop Run() is
// built on, so an underloaded serving layer produces the exact schedule
// of a serving-layer-off run.
// The fairness machinery (DRR) engages only under overload, where the
// FIFO guarantee is already forfeit.
#ifndef NAVPATH_SERVE_SERVER_H_
#define NAVPATH_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "compiler/workload_executor.h"
#include "observe/metrics_registry.h"

namespace navpath {

/// One tenant class: a bounded admission queue and a weight for the
/// overload fair-sharing pass. Tenants are identified by their index in
/// ServeOptions::tenants.
struct TenantSpec {
  std::string name;
  /// Bounded queue: arrivals beyond this are shed (ResourceExhausted).
  /// Zero is rejected by validation — a tenant that can never enqueue is
  /// a configuration error, not a policy.
  std::size_t queue_capacity = 16;
  /// Deficit-round-robin weight under overload (> 0). A weight-2 tenant
  /// is granted twice the estimated-cost budget per admission round.
  double weight = 1.0;
  /// Default relative deadline applied to this tenant's queries (0 =
  /// none): a query submitted without its own deadline gets
  /// arrival + deadline_slack. Deadlines map onto kHybrid window
  /// placement only, never onto correctness.
  SimTime deadline_slack = 0;
};

/// Overload controller state. Transitions are driven by live signals
/// (aggregate queue depth, buffer-pool pressure) and are strictly
/// ordered: normal -> degrade -> shed, with hysteresis on the way back
/// down.
enum class OverloadState { kNormal, kDegrade, kShed };

const char* OverloadStateName(OverloadState state);

struct ServeOptions {
  std::vector<TenantSpec> tenants;

  /// Executor configuration (policy, stats, explain, ...). Validated on
  /// entry via ValidateWorkloadOptions. A Server steps one executor over
  /// one Database, so a sharded store cannot be served (drive it through
  /// ShardedWorkloadExecutor). Tenant deadlines reach the executor only
  /// as kHybrid window placement; under the other policies they do
  /// nothing.
  WorkloadOptions workload;

  // --- Overload controller thresholds ---------------------------------

  /// Aggregate queued queries at or above this enter the degrade state.
  std::size_t degrade_queue_depth = 8;
  /// Aggregate queued queries at or above this enter the shed state.
  /// Must be >= degrade_queue_depth.
  std::size_t shed_queue_depth = 16;
  /// Recovery hysteresis: the controller steps DOWN one state only after
  /// `recover_hold` consecutive healthy evaluations (at most one query
  /// queued across all tenants, buffer footprint under 90% of budget).
  /// Any unhealthy evaluation resets the streak — one good completion
  /// never flips the system back.
  std::size_t recover_hold = 4;
};

/// Entry validation for the serving configuration (tenant set, queue
/// capacities, weights, controller thresholds). Run() refuses to start on
/// a malformed configuration instead of asserting mid-serve.
Status ValidateServeOptions(const ServeOptions& options);

/// Outcome of one submitted query, in Submit() order.
struct ServeOutcome {
  std::size_t tenant = 0;
  /// The query was rejected at the queue and never ran.
  bool shed = false;
  /// A write transaction (SubmitWrite). `count` stays 0; `commit_seq`
  /// records the version it published (0 on abort or shed).
  bool is_write = false;
  std::uint64_t commit_seq = 0;
  /// ResourceExhausted when shed; otherwise the query's own execution
  /// status (per-query isolation: one query's corruption fails only it).
  Status status;
  /// Ran on a cheaper tier than requested (overload degradation).
  bool degraded = false;
  SimTime arrival = 0;
  SimTime admitted_at = 0;   // activation time (0 when shed)
  SimTime finished_at = 0;   // completion time (0 when shed)
  std::uint64_t count = 0;   // result count (0 when shed)

  /// Zero for shed outcomes (finished_at stays 0, which would otherwise
  /// wrap below a positive arrival).
  SimTime turnaround() const {
    return finished_at < arrival ? 0 : finished_at - arrival;
  }
};

struct ServeResult {
  /// Per-submission outcomes, in Submit() order.
  std::vector<ServeOutcome> outcomes;
  /// Submission indices in activation order — the serving layer's actual
  /// admission sequence (determinism tests compare this byte for byte).
  std::vector<std::size_t> admission_order;
  /// Submission indices shed at the queue, in arrival order.
  std::vector<std::size_t> shed;
  /// The executor-side aggregate result (queries in executor Add order =
  /// arrival order of the non-shed submissions; metrics window, scheduler
  /// snapshot).
  WorkloadResult workload;
  /// The overload controller's state transitions, filled once when Run()
  /// ends: counters "serve.state.degrade_entered",
  /// "serve.state.shed_entered" and "serve.state.recovered". Shed,
  /// admitted, degraded and failed counts are read off `shed`,
  /// `admission_order` and `outcomes`.
  RegistrySnapshot metrics;
  /// Controller state when the last query drained.
  OverloadState final_state = OverloadState::kNormal;
};

/// The admission front-end. One Server serves one submission batch: queue
/// the workload with Submit(), then Run() plays it against the simulated
/// clock (arrivals, admissions, overload responses) to completion.
class Server {
 public:
  /// `db` and `doc` must outlive the server.
  Server(Database* db, const ImportedDocument& doc,
         const ServeOptions& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Queues one query for tenant `tenant` (index into options.tenants)
  /// arriving at simulated time `arrival`. Arrivals must be nondecreasing
  /// in Submit() order (a merged arrival stream). `deadline` is the
  /// absolute turnaround target (0 = tenant default); a deadline at or
  /// before the arrival is InvalidArgument. The query is parsed here, so
  /// malformed input fails at submission, not mid-serve.
  Status Submit(std::size_t tenant, const std::string& query,
                const PlanOptions& plan, SimTime arrival,
                SimTime deadline = 0);

  /// Queues a write transaction for tenant `tenant` (requires
  /// WorkloadOptions.txn on the serving configuration). Writes share the
  /// tenant's bounded queue and shed rules with reads, pass through the
  /// same admission passes (FIFO or DRR), and are never re-planned by
  /// the overload controller — there is no cheaper tier for a write, and
  /// degrading durability is not an overload response.
  Status SubmitWrite(std::size_t tenant, std::vector<WriteOp> ops,
                     SimTime arrival);

  std::size_t size() const { return subs_.size(); }

  /// Serves every submission to completion (or shedding) and reports the
  /// per-submission outcomes, the admission order, and the serve metrics.
  /// One-shot: the submission list is consumed.
  Result<ServeResult> Run();

 private:
  struct Submission {
    std::size_t tenant = 0;
    PathQuery query;
    PlanOptions plan;
    SimTime arrival = 0;
    SimTime deadline = 0;  // absolute, already defaulted from the tenant
    bool is_write = false;
    std::vector<WriteOp> write_ops;
  };

  /// Moves every submission whose arrival is due into its tenant queue
  /// (executor Add + queue push), shedding on overflow and on the shed
  /// state's early-occupancy rule.
  Status ProcessArrivals();

  /// Admission pass: global FIFO with head-of-line blocking in the normal
  /// state (byte-identical to Run()'s admission), deficit round-robin over
  /// the tenant queues under overload.
  Status TryAdmit();
  Status AdmitFifo();
  Status AdmitDrr();

  /// Activates the submission at the front of its tenant queue,
  /// re-planning it onto the degraded tier first when the controller says
  /// so. Updates the admission bookkeeping.
  Status Activate(std::size_t sub);

  /// Re-evaluates the overload state from the live signals, applying the
  /// recovery hysteresis.
  void UpdateController();

  Database* db_;
  ServeOptions options_;
  WorkloadExecutor executor_;

  std::vector<Submission> subs_;
  std::vector<std::size_t> job_of_;     // submission -> executor job (npos = shed)
  std::vector<std::size_t> sub_of_job_; // executor job -> submission
  std::vector<char> job_activated_;     // executor job -> handed to ActivateJob
  std::vector<Status> shed_status_;     // submission -> shed rejection (OK = not shed)
  std::vector<std::deque<std::size_t>> queues_;  // queued submissions
  std::vector<double> deficit_;         // DRR state per tenant
  std::size_t queued_total_ = 0;
  std::size_t next_submit_ = 0;         // arrival cursor over subs_
  std::size_t next_fifo_ = 0;           // FIFO cursor over executor jobs

  OverloadState state_ = OverloadState::kNormal;
  std::size_t healthy_streak_ = 0;
  // Controller transitions this run (ServeResult::metrics).
  std::uint64_t degrade_entered_ = 0;
  std::uint64_t shed_entered_ = 0;
  std::uint64_t recovered_ = 0;

  std::vector<std::size_t> admission_order_;
  std::vector<std::size_t> shed_;
};

}  // namespace navpath

#endif  // NAVPATH_SERVE_SERVER_H_
