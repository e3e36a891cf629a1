#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "compiler/cost_model.h"
#include "store/database.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

constexpr std::size_t kNoSub = static_cast<std::size_t>(-1);

/// Buffer-pool pressure: the active set's admission footprint at or above
/// this fraction of the budget counts as hot. Escalation needs a backlog
/// as well; recovery needs the pool to cool below it again.
constexpr double kBufferHotFraction = 0.9;
/// In the shed state, a tenant whose queue occupancy is at or above this
/// fraction of its capacity sheds new arrivals early, preserving headroom
/// for tenants that are not flooding the system.
constexpr double kShedOccupancy = 0.5;
/// Recovery needs the aggregate queue at or below this many queries.
constexpr std::size_t kRecoverQueueDepth = 1;

}  // namespace

const char* OverloadStateName(OverloadState state) {
  switch (state) {
    case OverloadState::kNormal:
      return "normal";
    case OverloadState::kDegrade:
      return "degrade";
    case OverloadState::kShed:
      return "shed";
  }
  NAVPATH_UNREACHABLE();
}

Status ValidateServeOptions(const ServeOptions& options) {
  if (options.tenants.empty()) {
    return Status::InvalidArgument("no tenants configured");
  }
  for (const TenantSpec& tenant : options.tenants) {
    if (tenant.queue_capacity == 0) {
      return Status::InvalidArgument("zero-capacity tenant queue: '" +
                                     tenant.name + "'");
    }
    // NaN fails the > comparison and lands here too.
    if (!(tenant.weight > 0.0)) {
      return Status::InvalidArgument("tenant weight must be positive: '" +
                                     tenant.name + "'");
    }
  }
  if (options.degrade_queue_depth == 0) {
    return Status::InvalidArgument("degrade_queue_depth must be positive");
  }
  if (options.shed_queue_depth < options.degrade_queue_depth) {
    return Status::InvalidArgument(
        "shed_queue_depth below degrade_queue_depth");
  }
  if (options.recover_hold == 0) {
    return Status::InvalidArgument("recover_hold must be positive");
  }
  return ValidateWorkloadOptions(options.workload);
}

Server::Server(Database* db, const ImportedDocument& doc,
               const ServeOptions& options)
    : db_(db), options_(options), executor_(db, doc, options.workload) {
  NAVPATH_CHECK(db != nullptr);
}

Status Server::Submit(std::size_t tenant, const std::string& query,
                      const PlanOptions& plan, SimTime arrival,
                      SimTime deadline) {
  if (tenant >= options_.tenants.size()) {
    return Status::InvalidArgument("unknown tenant index");
  }
  if (!subs_.empty() && arrival < subs_.back().arrival) {
    return Status::InvalidArgument(
        "arrivals must be nondecreasing in Submit() order");
  }
  if (deadline != 0 && deadline <= arrival) {
    return Status::InvalidArgument(
        "deadline in the past: at or before the arrival");
  }
  NAVPATH_ASSIGN_OR_RETURN(PathQuery parsed, ParseQuery(query, db_->tags()));
  Submission sub;
  sub.tenant = tenant;
  sub.query = std::move(parsed);
  sub.plan = plan;
  sub.arrival = arrival;
  sub.deadline = deadline;
  if (sub.deadline == 0 && options_.tenants[tenant].deadline_slack > 0) {
    sub.deadline = arrival + options_.tenants[tenant].deadline_slack;
  }
  subs_.push_back(std::move(sub));
  return Status::OK();
}

Status Server::SubmitWrite(std::size_t tenant, std::vector<WriteOp> ops,
                           SimTime arrival) {
  if (tenant >= options_.tenants.size()) {
    return Status::InvalidArgument("unknown tenant index");
  }
  if (options_.workload.txn == nullptr) {
    return Status::InvalidArgument(
        "write submissions require WorkloadOptions.txn");
  }
  if (ops.empty()) {
    return Status::InvalidArgument("write transaction without operations");
  }
  if (!subs_.empty() && arrival < subs_.back().arrival) {
    return Status::InvalidArgument(
        "arrivals must be nondecreasing in Submit() order");
  }
  Submission sub;
  sub.tenant = tenant;
  sub.arrival = arrival;
  sub.is_write = true;
  sub.write_ops = std::move(ops);
  subs_.push_back(std::move(sub));
  return Status::OK();
}

Status Server::ProcessArrivals() {
  const SimTime now = db_->clock()->now();
  while (next_submit_ < subs_.size() &&
         subs_[next_submit_].arrival <= now) {
    const std::size_t sub = next_submit_++;
    const Submission& s = subs_[sub];
    const TenantSpec& spec = options_.tenants[s.tenant];
    std::deque<std::size_t>& queue = queues_[s.tenant];

    // Bounded queue: overflow always sheds. In the shed state a tenant
    // additionally sheds early, at a fraction of its capacity, so a
    // flooding tenant cannot consume the whole system's headroom while
    // the controller is already rejecting work.
    const std::size_t early_cap = static_cast<std::size_t>(std::ceil(
        kShedOccupancy * static_cast<double>(spec.queue_capacity)));
    const bool full = queue.size() >= spec.queue_capacity;
    const bool early = state_ == OverloadState::kShed &&
                       queue.size() >= early_cap;
    if (full || early) {
      shed_status_[sub] = Status::ResourceExhausted(
          "tenant '" + spec.name + "': " +
          (full ? "admission queue full" : "overload shedding") + " (" +
          std::to_string(queue.size()) + "/" +
          std::to_string(spec.queue_capacity) + " queued, state=" +
          OverloadStateName(state_) + ", fair-share budget " +
          std::to_string(deficit_[s.tenant]) + " cost units); retry later");
      shed_.push_back(sub);
      continue;
    }
    if (s.is_write) {
      NAVPATH_RETURN_NOT_OK(executor_.AddWrite(s.write_ops, s.arrival));
    } else {
      NAVPATH_RETURN_NOT_OK(
          executor_.Add(s.query, s.plan, {}, s.arrival, s.deadline));
    }
    job_of_[sub] = executor_.size() - 1;
    sub_of_job_.push_back(sub);
    job_activated_.push_back(0);
    queue.push_back(sub);
    ++queued_total_;
  }
  return Status::OK();
}

Status Server::Activate(std::size_t sub) {
  const Submission& s = subs_[sub];
  std::deque<std::size_t>& queue = queues_[s.tenant];
  NAVPATH_CHECK(!queue.empty() && queue.front() == sub);
  const std::size_t job = job_of_[sub];

  // Overload degradation: while the controller is under pressure, every
  // activation is re-planned onto the cost model's cheaper tier (reduced
  // elevator window or Simple-method chain). Priced, not guessed: the
  // tier helper reports the latency traded for the freed footprint.
  // Writes are exempt — they have no plan tier, and dropping committed
  // work is not an overload response. This is the only RetierJob call
  // site, so the guard (backed by RetierJob's own writer rejection) is
  // the invariant that overload control never re-plans a write
  // transaction — including one mid-retry after an optimistic abort,
  // which stays activated and never re-enters this path.
  if (!s.is_write && state_ != OverloadState::kNormal &&
      options_.workload.stats != nullptr) {
    const DegradedTier tier = ChooseDegradedTier(
        *options_.workload.stats, s.query, s.plan,
        db_->options().disk_model, db_->costs(),
        options_.workload.summary ? db_->summary() : nullptr);
    if (tier.viable) {
      NAVPATH_RETURN_NOT_OK(executor_.RetierJob(job, tier.plan));
    }
  }

  NAVPATH_RETURN_NOT_OK(executor_.ActivateJob(job));
  job_activated_[job] = 1;
  queue.pop_front();
  --queued_total_;
  admission_order_.push_back(sub);
  return Status::OK();
}

Status Server::AdmitFifo() {
  // The executor's own admission policy, externalized: strict Add-order
  // FIFO with head-of-line blocking over the same CanAdmit gate as
  // Run()'s, which is what makes an underloaded serving layer
  // transparent.
  for (;;) {
    while (next_fifo_ < executor_.size() && job_activated_[next_fifo_]) {
      ++next_fifo_;
    }
    if (next_fifo_ >= executor_.size()) break;
    if (!executor_.CanAdmit(next_fifo_)) break;
    NAVPATH_RETURN_NOT_OK(Activate(sub_of_job_[next_fifo_]));
  }
  return Status::OK();
}

Status Server::AdmitDrr() {
  // Deficit round-robin on estimated cost: each pass grants every tenant
  // with admissible work quantum x weight cost units; a tenant admits
  // queue heads while its deficit covers them. Weights therefore share
  // *work*, not query counts — a weight-2 tenant gets twice the estimated
  // cost through per round. The pass loop ends when a full pass admits
  // nothing (budget exhausted or heads blocked by CanAdmit) — except
  // while the executor is idle, when it must first admit something.
  // The refill per round is the mean estimated cost of the tenants'
  // queue heads at the start of the pass.
  double sum = 0.0;
  std::size_t n = 0;
  for (const std::deque<std::size_t>& queue : queues_) {
    if (queue.empty()) continue;
    sum += std::max(1.0, executor_.EstimatedCost(job_of_[queue.front()]));
    ++n;
  }
  const double quantum = n == 0 ? 1.0 : sum / static_cast<double>(n);
  bool admitted_any = false;
  for (;;) {
    bool progress = false;
    bool admissible_head = false;
    for (std::size_t t = 0; t < queues_.size(); ++t) {
      std::deque<std::size_t>& queue = queues_[t];
      if (queue.empty()) {
        deficit_[t] = 0.0;  // no banking while idle
        continue;
      }
      if (!executor_.CanAdmit(job_of_[queue.front()])) continue;
      admissible_head = true;
      deficit_[t] += quantum * options_.tenants[t].weight;
      while (!queue.empty()) {
        const std::size_t job = job_of_[queue.front()];
        if (!executor_.CanAdmit(job)) break;
        if (deficit_[t] < std::max(1.0, executor_.EstimatedCost(job))) {
          break;
        }
        NAVPATH_RETURN_NOT_OK(Activate(queue.front()));
        // Charge the work actually admitted, not the requested tier:
        // Activate may have re-tiered the job onto a cheaper plan, and
        // fair share is shares of admitted work.
        deficit_[t] -= std::max(1.0, executor_.EstimatedCost(job));
        progress = true;
        admitted_any = true;
      }
      if (queue.empty()) deficit_[t] = 0.0;
    }
    if (progress) continue;
    // Progress guarantee: with an idle executor no completion will ever
    // re-trigger admission, so ending on a pass that only banked deficit
    // (small quantum or sub-unit weights) would strand the queued work —
    // and the serving loop behind it. Jump straight to the pass on which
    // the first head becomes covered: every admissible tenant banks the
    // same number of rounds, so the accounting is exactly the pass loop's.
    if (!admitted_any && executor_.active_count() == 0 && admissible_head) {
      double passes = -1.0;
      for (std::size_t t = 0; t < queues_.size(); ++t) {
        const std::deque<std::size_t>& queue = queues_[t];
        if (queue.empty()) continue;
        const std::size_t job = job_of_[queue.front()];
        if (!executor_.CanAdmit(job)) continue;
        // A no-progress pass already topped this tenant up, so the head
        // cost strictly exceeds the banked deficit. The pass on which the
        // head crosses accrues in-pass, hence the -1: the jump banks only
        // the rounds before it.
        const double need =
            std::max(1.0, executor_.EstimatedCost(job)) - deficit_[t];
        const double rounds = std::max(
            0.0,
            std::ceil(need / (quantum * options_.tenants[t].weight)) - 1.0);
        if (passes < 0.0 || rounds < passes) passes = rounds;
      }
      for (std::size_t t = 0; t < queues_.size(); ++t) {
        const std::deque<std::size_t>& queue = queues_[t];
        if (queue.empty()) continue;
        if (!executor_.CanAdmit(job_of_[queue.front()])) continue;
        deficit_[t] += passes * quantum * options_.tenants[t].weight;
      }
      continue;
    }
    break;
  }
  return Status::OK();
}

Status Server::TryAdmit() {
  return state_ == OverloadState::kNormal ? AdmitFifo() : AdmitDrr();
}

void Server::UpdateController() {
  const bool buffer_hot =
      static_cast<double>(executor_.footprint_used()) >=
      kBufferHotFraction * static_cast<double>(executor_.footprint_budget());
  // Escalation is immediate: queue depth alone forces shed; degrade also
  // triggers on a hot buffer pool once the backlog reaches half the
  // degrade depth (a hot pool with an empty queue is just the active set
  // working, not overload).
  OverloadState target = state_;
  if (queued_total_ >= options_.shed_queue_depth) {
    target = OverloadState::kShed;
  } else if (queued_total_ >= options_.degrade_queue_depth ||
             (buffer_hot &&
              queued_total_ * 2 >= options_.degrade_queue_depth)) {
    target = OverloadState::kDegrade;
  }
  if (static_cast<int>(target) > static_cast<int>(state_)) {
    if (target == OverloadState::kShed) {
      ++shed_entered_;
    } else {
      ++degrade_entered_;
    }
    state_ = target;
    healthy_streak_ = 0;
    return;
  }

  // Recovery steps down ONE state per hysteresis window: shed drains to
  // degrade, degrade to normal, each requiring recover_hold consecutive
  // healthy evaluations. Any pressure resets the streak.
  if (state_ == OverloadState::kNormal) return;
  const bool healthy = queued_total_ <= kRecoverQueueDepth && !buffer_hot;
  if (!healthy) {
    healthy_streak_ = 0;
    return;
  }
  if (++healthy_streak_ >= options_.recover_hold) {
    state_ = state_ == OverloadState::kShed ? OverloadState::kDegrade
                                            : OverloadState::kNormal;
    healthy_streak_ = 0;
    ++recovered_;
  }
}

Result<ServeResult> Server::Run() {
  NAVPATH_RETURN_NOT_OK(ValidateServeOptions(options_));
  if (subs_.empty()) {
    return Status::InvalidArgument("empty submission list");
  }
  queues_.assign(options_.tenants.size(), {});
  deficit_.assign(options_.tenants.size(), 0.0);
  job_of_.assign(subs_.size(), kNoSub);
  shed_status_.assign(subs_.size(), Status::OK());
  sub_of_job_.clear();
  job_activated_.clear();
  admission_order_.clear();
  shed_.clear();
  queued_total_ = 0;
  next_submit_ = 0;
  next_fifo_ = 0;
  state_ = OverloadState::kNormal;
  healthy_streak_ = 0;
  degrade_entered_ = 0;
  shed_entered_ = 0;
  recovered_ = 0;

  NAVPATH_RETURN_NOT_OK(executor_.BeginStepping(subs_.size()));
  NAVPATH_RETURN_NOT_OK(ProcessArrivals());
  UpdateController();
  NAVPATH_RETURN_NOT_OK(TryAdmit());

  while (executor_.active_count() > 0 || next_submit_ < subs_.size() ||
         queued_total_ > 0) {
    if (executor_.active_count() == 0) {
      // With an empty active set every queue head is admissible, so a
      // drained system can only be waiting on the next arrival.
      NAVPATH_CHECK(queued_total_ == 0 && next_submit_ < subs_.size());
      db_->clock()->WaitUntil(subs_[next_submit_].arrival);
      NAVPATH_RETURN_NOT_OK(ProcessArrivals());
      UpdateController();
      NAVPATH_RETURN_NOT_OK(TryAdmit());
      continue;
    }
    // Open-system arrivals join mid-serve, exactly on Run()'s gate.
    if (next_submit_ < subs_.size() &&
        subs_[next_submit_].arrival != 0 &&
        subs_[next_submit_].arrival <= db_->clock()->now()) {
      NAVPATH_RETURN_NOT_OK(ProcessArrivals());
      UpdateController();
      NAVPATH_RETURN_NOT_OK(TryAdmit());
    }
    NAVPATH_ASSIGN_OR_RETURN(const std::size_t done, executor_.StepOnce());
    if (done != WorkloadExecutor::kNoJob) {
      UpdateController();
      NAVPATH_RETURN_NOT_OK(TryAdmit());
    }
  }

  NAVPATH_ASSIGN_OR_RETURN(WorkloadResult workload,
                           executor_.EndStepping());

  ServeResult result;
  result.outcomes.resize(subs_.size());
  for (std::size_t sub = 0; sub < subs_.size(); ++sub) {
    ServeOutcome& out = result.outcomes[sub];
    out.tenant = subs_[sub].tenant;
    out.arrival = subs_[sub].arrival;
    out.is_write = subs_[sub].is_write;
    if (job_of_[sub] == kNoSub) {
      out.shed = true;
      out.status = shed_status_[sub];
      continue;
    }
    const WorkloadQueryResult& qr = workload.queries[job_of_[sub]];
    // Writers must come back untiered no matter what the controller did
    // while they were queued or retrying an optimistic abort.
    NAVPATH_DCHECK(!(qr.is_write && qr.degraded));
    out.status = qr.status;
    out.degraded = qr.degraded;
    out.is_write = qr.is_write;
    out.commit_seq = qr.commit_seq;
    out.admitted_at = qr.admitted_at;
    out.finished_at = qr.finished_at;
    out.count = qr.count;
  }
  result.admission_order = std::move(admission_order_);
  result.shed = std::move(shed_);
  result.workload = std::move(workload);
  result.metrics.counters = {
      {"serve.state.degrade_entered", degrade_entered_},
      {"serve.state.recovered", recovered_},
      {"serve.state.shed_entered", shed_entered_}};
  result.final_state = state_;
  subs_.clear();
  return result;
}

}  // namespace navpath
