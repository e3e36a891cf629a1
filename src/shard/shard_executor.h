// Shard-parallel workload execution with document-order merge.
//
// ShardedWorkloadExecutor is the multi-drive counterpart of
// WorkloadExecutor: each query is routed (shard_router.h), its per-shard
// sub-queries are admitted as ordinary cooperative jobs into one plain
// WorkloadExecutor per participating shard — so fan-out work interleaves
// with every other query's sub-queries under the existing scheduling
// policies, admission control, and buffer budgets — and the per-shard
// results are merged back per query.
//
// Time semantics: the shards' databases own independent simulated clocks,
// all cold-started at zero, modeling K drives working in parallel. The
// sharded makespan is therefore the MAX over the per-shard makespans (the
// host-side loop running the shard executors one after another is
// measurement scaffolding, not simulated time), per-query completion is
// the max over that query's participants, and per-shard disk utilization
// is the drive's busy time during the run over the global makespan.
//
// Result semantics: per-shard node vectors arrive sorted by the original
// document's gapped order keys, which are globally unique and preserved
// by the partitioned import, so the cross-shard merge is an order-key
// merge; the only node two shards can both report is the replicated root
// element, deduplicated by key (node mode) or subtracted via the route's
// root_dup (count mode). exists() merges as OR of the per-shard 0/1
// answers.
//
// At K = 1 every query — in-domain or not — routes to the single home
// shard in Add() order, so the run is byte-identical to a plain
// WorkloadExecutor over an identically-configured unsharded database:
// same schedule, same results, same metrics. Tests and the
// workload_shard bench gate on this.
#ifndef NAVPATH_SHARD_SHARD_EXECUTOR_H_
#define NAVPATH_SHARD_SHARD_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compiler/workload_executor.h"
#include "shard/shard_router.h"
#include "shard/sharded_store.h"

namespace navpath {

struct ShardWorkloadResult {
  /// Per-query merged outcomes, in Add() order.
  std::vector<WorkloadQueryResult> queries;

  /// Sharded makespan (max over per-shard makespans) and aggregate CPU
  /// time summed across the parallel drives.
  SimTime total_time = 0;
  SimTime cpu_time = 0;
  /// Field-wise aggregate of the per-shard metrics windows (counters
  /// summed; elevator_depth_max maxed).
  Metrics metrics;

  /// Shard-layer observability: counters "shard.fanout" (queries fanned
  /// to >1 shard), "shard.routed.single", "shard.routed.home" (out-of-
  /// domain fallbacks), "shard.merge.duplicates" (replicated-root copies
  /// removed); the "shard.fanout.width" histogram (participants per
  /// query); and per-drive gauges "disk.shard.<k>.utilization" (busy over
  /// makespan), "disk.shard.<k>.busy_seconds", "disk.shard.<k>.reads".
  RegistrySnapshot scheduler;

  /// Raw per-shard runs (default-constructed for shards no query
  /// touched), including each shard's own WorkloadResult::scheduler.
  std::vector<WorkloadResult> shards;
  /// Per-shard disk utilization in [0, 1] over the sharded makespan.
  std::vector<double> utilization;
};

class ShardedWorkloadExecutor {
 public:
  /// `store` must outlive the executor. `options` govern every per-shard
  /// executor (policy, budgets, collect_nodes, ...); `options.stats` is
  /// overridden per shard with that shard's DocumentStats.
  ShardedWorkloadExecutor(ShardedStore* store,
                          const WorkloadOptions& options);

  /// Routes `query` and stages its per-shard sub-queries. A query
  /// outside the router's domain (PathSummary::Supports: a relative path,
  /// a predicate, an upward or sideways axis) falls back to the home
  /// shard at K=1 and is rejected with InvalidArgument at K>1 (the home
  /// shard only holds the full document unsharded).
  Status Add(const std::string& query, const PlanOptions& plan);

  /// Runs every participating shard's executor and merges. Hard failures
  /// (validation, a shard run failing as a whole) fail the call;
  /// per-query errors stay per-query, as in WorkloadExecutor. Options
  /// with `txn` (sharded MVCC is not implemented) are InvalidArgument.
  Result<ShardWorkloadResult> Run();

  /// Test hook: like WorkloadOptions::on_pull with the shard id
  /// prepended. Shards run sequentially (shard 0 first), so the combined
  /// trace is deterministic. Fires in addition to options.on_pull.
  std::function<void(std::size_t shard, std::size_t job_index,
                     std::size_t active_size)>
      on_shard_pull;

 private:
  struct PendingQuery {
    QueryRoute route;
    PlanOptions plan;
  };

  ShardedStore* store_;
  ShardRouter router_;
  WorkloadOptions options_;
  std::vector<PendingQuery> pending_;
};

}  // namespace navpath

#endif  // NAVPATH_SHARD_SHARD_EXECUTOR_H_
