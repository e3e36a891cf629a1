#include "shard/shard_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace navpath {

namespace {

/// Sorts by the original document's order keys and drops duplicates (the
/// replicated root is the only node two shards can both report). Returns
/// the number of duplicates removed.
std::uint64_t MergeDocumentOrder(std::vector<LogicalNode>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const LogicalNode& a, const LogicalNode& b) {
              return a.order < b.order;
            });
  const auto last = std::unique(nodes->begin(), nodes->end(),
                                [](const LogicalNode& a,
                                   const LogicalNode& b) {
                                  return a.order == b.order;
                                });
  const std::uint64_t duplicates =
      static_cast<std::uint64_t>(nodes->end() - last);
  nodes->erase(last, nodes->end());
  return duplicates;
}

}  // namespace

ShardedWorkloadExecutor::ShardedWorkloadExecutor(
    ShardedStore* store, const WorkloadOptions& options)
    : store_(store), router_(store), options_(options) {
  NAVPATH_CHECK(store != nullptr);
}

Status ShardedWorkloadExecutor::Add(const std::string& query,
                                    const PlanOptions& plan) {
  NAVPATH_ASSIGN_OR_RETURN(QueryRoute route, router_.Route(query));
  if (route.unrouted && store_->shard_count() > 1) {
    return Status::InvalidArgument(
        "query is outside the shard router's domain (" + route.reason +
        "); the home-shard fallback only holds the full document at K=1");
  }
  PendingQuery pending;
  pending.route = std::move(route);
  pending.plan = plan;
  pending_.push_back(std::move(pending));
  return Status::OK();
}

Result<ShardWorkloadResult> ShardedWorkloadExecutor::Run() {
  NAVPATH_RETURN_NOT_OK(ValidateWorkloadOptions(options_));
  if (options_.txn != nullptr) {
    return Status::InvalidArgument(
        "sharded execution cannot be combined with transactions "
        "(WorkloadOptions.txn): commit ordering and snapshot visibility "
        "across shard-local version chains are not implemented — run "
        "transactional workloads unsharded");
  }
  const std::size_t shard_count = store_->shard_count();

  // One plain WorkloadExecutor per participating shard; sub-queries are
  // admitted in global Add() order, so at K=1 the single shard sees the
  // exact job sequence an unsharded executor would.
  std::vector<std::unique_ptr<WorkloadExecutor>> execs(shard_count);
  // Per query: (shard, job index within that shard's executor).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> slots(
      pending_.size());
  std::vector<std::size_t> jobs_in(shard_count, 0);
  for (std::size_t qi = 0; qi < pending_.size(); ++qi) {
    const PendingQuery& q = pending_[qi];
    for (const std::size_t k : q.route.participants) {
      if (execs[k] == nullptr) {
        WorkloadOptions per_shard = options_;
        per_shard.stats = &store_->stats(k);
        per_shard.on_pull = [this, k](std::size_t job, std::size_t active) {
          if (on_shard_pull) on_shard_pull(k, job, active);
          if (options_.on_pull) options_.on_pull(job, active);
        };
        execs[k] = std::make_unique<WorkloadExecutor>(
            store_->db(k), store_->doc(k), per_shard);
      }
      NAVPATH_RETURN_NOT_OK(execs[k]->Add(q.route.per_shard[k], q.plan));
      slots[qi].emplace_back(k, jobs_in[k]++);
    }
  }

  ShardWorkloadResult out;
  out.shards.resize(shard_count);
  out.utilization.assign(shard_count, 0.0);
  std::vector<SimTime> busy(shard_count, 0);

  // The shards' clocks are independent and all start cold at zero: the
  // drives run in parallel in simulated time, and this host-side loop is
  // just how the simulation grinds through them.
  for (std::size_t k = 0; k < shard_count; ++k) {
    if (execs[k] == nullptr) continue;
    NAVPATH_ASSIGN_OR_RETURN(out.shards[k], execs[k]->Run());
    // Run() cold-starts, which resets the drive's busy accumulator with
    // its timeline, so the reading covers this run alone.
    busy[k] = store_->db(k)->disk()->busy_time();
    out.total_time = std::max(out.total_time, out.shards[k].total_time);
    out.cpu_time += out.shards[k].cpu_time;
    AccumulateMetrics(&out.metrics, out.shards[k].metrics);
  }

  // Per-query merge.
  std::uint64_t fanout = 0;
  std::uint64_t routed_single = 0;
  std::uint64_t merge_duplicates = 0;
  Histogram width_histogram;

  out.queries.resize(pending_.size());
  for (std::size_t qi = 0; qi < pending_.size(); ++qi) {
    const PendingQuery& q = pending_[qi];
    WorkloadQueryResult merged;
    std::uint64_t sum = 0;
    bool first = true;
    for (const auto& [k, slot] : slots[qi]) {
      WorkloadQueryResult& part = out.shards[k].queries[slot];
      if (!part.status.ok() && merged.status.ok()) {
        merged.status = part.status;
      }
      sum += part.count;
      merged.pulls += part.pulls;
      merged.degraded |= part.degraded;
      if (first) {
        merged.admitted_at = part.admitted_at;
        merged.finished_at = part.finished_at;
        first = false;
      } else {
        merged.admitted_at = std::min(merged.admitted_at, part.admitted_at);
        merged.finished_at = std::max(merged.finished_at, part.finished_at);
      }
      if (!part.nodes.empty()) {
        merged.nodes.insert(merged.nodes.end(),
                            std::make_move_iterator(part.nodes.begin()),
                            std::make_move_iterator(part.nodes.end()));
        part.nodes.clear();
      }
    }
    // exists() is the OR of the shards' 0/1 answers. Otherwise the only
    // node two shards can both count is the replicated root, so the merge
    // is the sum minus the known overcount.
    merged.count = q.route.per_shard[0].mode == PathQuery::Mode::kExists
                       ? (sum > 0 ? 1 : 0)
                       : sum - q.route.root_dup;
    if (slots[qi].size() > 1 && !merged.nodes.empty()) {
      merge_duplicates += MergeDocumentOrder(&merged.nodes);
    } else {
      merge_duplicates += q.route.root_dup;
    }

    width_histogram.Record(q.route.width());
    // An out-of-domain query (the home-shard fallback at K=1) is neither.
    if (!q.route.unrouted) {
      if (q.route.width() > 1) {
        ++fanout;
      } else {
        ++routed_single;
      }
    }
    out.queries[qi] = std::move(merged);
  }

  for (std::size_t k = 0; k < shard_count; ++k) {
    out.utilization[k] =
        out.total_time > 0 ? static_cast<double>(busy[k]) /
                                 static_cast<double>(out.total_time)
                           : 0.0;
  }
  out.scheduler.counters = {{"shard.fanout", fanout},
                            {"shard.merge.duplicates", merge_duplicates},
                            {"shard.routed.single", routed_single}};
  if (width_histogram.count() > 0) {
    out.scheduler.histograms.push_back(
        Summarize("shard.fanout.width", width_histogram));
  }
  return out;
}

}  // namespace navpath
