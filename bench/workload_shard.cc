// Multi-drive scale-out: one XMark document path-partitioned across K
// shards (ROADMAP scale-out item), each shard a full Database with its
// own simulated drive, elevator, and buffer pool, driven shard-parallel
// by ShardedWorkloadExecutor under the hybrid scheduling policy.
//
// Sweeps K in {1, 2, 4, 8} ({1, 2} under NAVPATH_BENCH_FAST=1) at
// constant aggregate buffer memory — the total pool is divided across
// the shards, so the document stays much larger than any single drive's
// buffer — and reports aggregate throughput, per-shard disk utilization,
// and the fan-out merge overhead.
//
// Two gates (nonzero exit when violated):
//   - K=1 is byte-identical to a plain WorkloadExecutor over an
//     identically configured unsharded database: same per-query counts,
//     same page reads, same simulated makespan.
//   - Sharding pays: aggregate throughput at the sweep's widest K beats
//     K=1 by the expected parallel speedup (>= 1.5x at K=4 full mode,
//     >= 1.1x at K=2 fast mode).
//
// Appends a "shard" section to the BENCH_workload.json trajectory
// (written by workload_throughput; schema note in DESIGN.md).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "compiler/workload_executor.h"
#include "shard/shard_executor.h"
#include "shard/sharded_store.h"

namespace {

using namespace navpath;

// Descendant-heavy mix: most queries fan out across partition units,
// with a few single-owner paths so routing sees both shapes.
constexpr const char* kShardMix[] = {
    "/site//description",
    "/site//keyword",
    "/site//name",
    "/site//date",
    "/site/regions//item",
    "/site//annotation",
    "/site//emph",
    "/site/people/person/email",
    "/site/open_auctions/open_auction/bidder",
    "/site//text",
};

struct SweepPoint {
  std::size_t shards = 0;
  double seconds = 0;
  double throughput = 0;   // queries per simulated second
  double speedup = 1.0;    // vs the K=1 makespan
  double estimated_speedup = 1.0;  // cost-model fan-out estimate
  std::uint64_t disk_reads = 0;
  std::uint64_t fanout_queries = 0;
  std::uint64_t merge_duplicates = 0;
  std::uint64_t merged_nodes = 0;
  std::vector<double> utilization;
  std::vector<std::uint64_t> per_query_counts;
};

WorkloadOptions ShardWorkloadOptions() {
  WorkloadOptions options;
  options.policy = WorkloadPolicy::kHybrid;
  options.collect_nodes = true;
  // Pinned like the other longitudinal workload benches, so admission
  // sequences stay comparable across revisions.
  options.footprint_from_stats = false;
  options.summary = false;
  return options;
}

Result<SweepPoint> RunSharded(double sf, std::size_t shards,
                              std::size_t total_buffer_pages) {
  FixtureOptions fixture_options;
  fixture_options.db.buffer_pages = std::max<std::size_t>(
      total_buffer_pages / shards, 16);
  NAVPATH_ASSIGN_OR_RETURN(const std::unique_ptr<ShardedStore> store,
                           CreateShardedXMark(sf, shards, fixture_options));

  ShardedWorkloadExecutor executor(store.get(), ShardWorkloadOptions());
  for (const char* query : kShardMix) {
    NAVPATH_RETURN_NOT_OK(executor.Add(query,
                                       PaperPlan(PlanKind::kXSchedule)));
  }
  NAVPATH_ASSIGN_OR_RETURN(const ShardWorkloadResult result,
                           executor.Run());

  SweepPoint point;
  point.shards = shards;
  point.seconds = SimClock::ToSeconds(result.total_time);
  point.throughput = point.seconds > 0
                         ? static_cast<double>(std::size(kShardMix)) /
                               point.seconds
                         : 0.0;
  point.disk_reads = result.metrics.disk_reads;
  point.fanout_queries = result.scheduler.CounterOr("shard.fanout");
  point.merge_duplicates =
      result.scheduler.CounterOr("shard.merge.duplicates");
  point.utilization = result.utilization;
  // The cost model's view of the same fan-out: per-shard makespans as
  // the sub-plan costs, the merged node volume as the merge input.
  std::vector<double> per_shard_costs;
  for (const WorkloadResult& shard : result.shards) {
    if (shard.total_time > 0) {
      per_shard_costs.push_back(SimClock::ToSeconds(shard.total_time));
    }
  }
  for (const WorkloadQueryResult& q : result.queries) {
    point.per_query_counts.push_back(q.count);
    point.merged_nodes += q.nodes.size();
    if (!q.status.ok()) {
      return Status::Aborted("query failed: " + q.status.ToString());
    }
  }
  const ShardFanoutEstimate estimate = EstimateShardFanout(
      per_shard_costs, static_cast<double>(point.merged_nodes), 1e-9);
  point.estimated_speedup = estimate.speedup;
  return point;
}

/// The unsharded oracle for the K=1 identity gate, with the full buffer.
Result<SweepPoint> RunUnsharded(double sf, std::size_t total_buffer_pages) {
  FixtureOptions fixture_options;
  fixture_options.db.buffer_pages = std::max<std::size_t>(
      total_buffer_pages, 16);
  NAVPATH_ASSIGN_OR_RETURN(const std::unique_ptr<XMarkFixture> fixture,
                           XMarkFixture::Create(sf, fixture_options));
  WorkloadOptions options = ShardWorkloadOptions();
  options.stats = &fixture->stats();
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const char* query : kShardMix) {
    NAVPATH_RETURN_NOT_OK(executor.Add(query,
                                       PaperPlan(PlanKind::kXSchedule)));
  }
  NAVPATH_ASSIGN_OR_RETURN(const WorkloadResult result, executor.Run());

  SweepPoint point;
  point.shards = 1;
  point.seconds = SimClock::ToSeconds(result.total_time);
  point.disk_reads = result.metrics.disk_reads;
  for (const WorkloadQueryResult& q : result.queries) {
    point.per_query_counts.push_back(q.count);
    point.merged_nodes += q.nodes.size();
  }
  return point;
}

void WriteSweepPoint(JsonWriter* json, const SweepPoint& point) {
  json->BeginObject();
  json->Key("shards").Value(static_cast<std::uint64_t>(point.shards));
  json->Key("makespan_seconds").Value(point.seconds);
  json->Key("throughput_qps").Value(point.throughput);
  json->Key("speedup").Value(point.speedup);
  json->Key("estimated_speedup").Value(point.estimated_speedup);
  json->Key("disk_reads").Value(point.disk_reads);
  json->Key("fanout_queries").Value(point.fanout_queries);
  json->Key("merge_duplicates").Value(point.merge_duplicates);
  json->Key("merged_nodes").Value(point.merged_nodes);
  json->Key("utilization").BeginArray();
  for (const double u : point.utilization) json->Value(u);
  json->EndArray();
  json->EndObject();
}

}  // namespace

int main() {
  const bool fast = FastBenchMode();
  const double sf = fast ? 0.1 : 0.25;
  // Constant aggregate memory across the sweep: the pool an unsharded
  // database would own, divided among the shards. Small enough that the
  // document dwarfs every per-shard buffer at the widest K.
  const std::size_t total_buffer_pages = fast ? 192 : 384;
  const std::vector<std::size_t> sweep =
      fast ? std::vector<std::size_t>{1, 2}
           : std::vector<std::size_t>{1, 2, 4, 8};

  std::printf("Path-partitioned scale-out — %zu queries, scale %.2f, "
              "%zu total buffer pages\n",
              std::size(kShardMix), sf, total_buffer_pages);

  bool ok = true;

  // --- Gate 1: K=1 is the unsharded executor, byte for byte. ------------
  auto unsharded = RunUnsharded(sf, total_buffer_pages);
  unsharded.status().AbortIfNotOk();
  auto one = RunSharded(sf, 1, total_buffer_pages);
  one.status().AbortIfNotOk();
  const bool identical =
      one->per_query_counts == unsharded->per_query_counts &&
      one->disk_reads == unsharded->disk_reads &&
      one->seconds == unsharded->seconds &&
      one->merged_nodes == unsharded->merged_nodes;
  if (!identical) {
    std::fprintf(stderr,
                 "K=1 diverges from the unsharded executor: "
                 "reads %llu vs %llu, makespan %.6f vs %.6f\n",
                 static_cast<unsigned long long>(one->disk_reads),
                 static_cast<unsigned long long>(unsharded->disk_reads),
                 one->seconds, unsharded->seconds);
    ok = false;
  }

  // --- Sweep. ------------------------------------------------------------
  PrintTableHeader("shard sweep",
                   {"K", "makespan", "qps", "speedup", "est", "reads",
                    "fanout", "dups", "util:min", "util:max"});
  std::vector<SweepPoint> points;
  for (const std::size_t shards : sweep) {
    auto point = shards == 1 ? std::move(one)
                             : RunSharded(sf, shards, total_buffer_pages);
    point.status().AbortIfNotOk();
    point->speedup = points.empty()
                         ? 1.0
                         : points.front().seconds / point->seconds;
    const auto [util_min, util_max] = std::minmax_element(
        point->utilization.begin(), point->utilization.end());
    PrintTableRow({std::to_string(shards), FormatSeconds(point->seconds),
                   FormatSeconds(point->throughput),
                   FormatSeconds(point->speedup),
                   FormatSeconds(point->estimated_speedup),
                   std::to_string(point->disk_reads),
                   std::to_string(point->fanout_queries),
                   std::to_string(point->merge_duplicates),
                   FormatPercent(*util_min), FormatPercent(*util_max)});
    for (const double u : point->utilization) {
      if (u < 0.0 || u > 1.0) {
        std::fprintf(stderr, "K=%zu: utilization %.3f outside [0, 1]\n",
                     shards, u);
        ok = false;
      }
    }
    // Results must not drift with K (the merge hides the partitioning).
    if (!points.empty() &&
        point->per_query_counts != points.front().per_query_counts) {
      std::fprintf(stderr, "K=%zu: per-query counts diverge from K=1\n",
                   shards);
      ok = false;
    }
    points.push_back(*std::move(point));
  }

  // --- Gate 2: the widest K actually buys parallel speedup. -------------
  const double required = fast ? 1.1 : 1.5;
  const SweepPoint& widest =
      *std::max_element(points.begin(), points.end(),
                        [](const SweepPoint& a, const SweepPoint& b) {
                          return a.speedup < b.speedup;
                        });
  if (widest.speedup < required) {
    std::fprintf(stderr,
                 "best speedup %.2fx (K=%zu) below the %.2fx gate\n",
                 widest.speedup, widest.shards, required);
    ok = false;
  }

  // --- Trajectory. --------------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Key("scale_factor").Value(sf);
  json.Key("total_buffer_pages")
      .Value(static_cast<std::uint64_t>(total_buffer_pages));
  json.Key("queries").Value(static_cast<std::uint64_t>(
      std::size(kShardMix)));
  json.Key("k1_identical_to_unsharded").Value(identical);
  json.Key("speedup_gate").Value(required);
  json.Key("sweep").BeginArray();
  for (const SweepPoint& point : points) WriteSweepPoint(&json, point);
  json.EndArray();
  json.EndObject();

  ok = WriteWorkloadSection("shard", json.str()) && ok;

  std::printf("workload shard: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
