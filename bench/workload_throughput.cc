// Workload throughput: N concurrent XPath queries over one shared I/O
// subsystem (paper Sec. 7: "We also expect concurrent queries to strongly
// benefit from asynchronous I/O, as scheduling decisions can be made based
// on more pending requests.")
//
// Sweeps N in {1, 2, 4, 8} mixed XMark queries, all as XSchedule plans,
// and compares back-to-back execution (WorkloadExecutor with one active
// slot) against cooperative interleaving under each scheduling policy.
// Interleaving pools every query's pending asynchronous reads in the
// disk's elevator: the pending pool deepens, seeks shorten, duplicate
// reads across queries merge into single submissions. A last section
// runs a pair of queries over disjoint regions of the document, where the
// head ping-pongs between the two areas and interleaving gains little.
//
// Emits the machine-readable trajectory BENCH_workload.json (schema note
// in DESIGN.md, "The workload layer") for later PRs to diff against.
#include <cmath>
#include <cstdio>
#include <span>

#include "benchlib/harness.h"
#include "common/random.h"
#include "compiler/workload_executor.h"
#include "observe/metrics_registry.h"

namespace {

using namespace navpath;

constexpr const char* kWorkloadQueries[] = {
    "/site/regions//item",
    "/site/regions//name",
    "/site/people/person/email",
    "/site//description",
    "/site/open_auctions/open_auction/bidder",
    "/site/closed_auctions/closed_auction/annotation/description",
    "/site//keyword",
    "/site/people/person/address/city",
};

Result<WorkloadResult> RunWorkload(XMarkFixture* fixture,
                                   std::span<const char* const> queries,
                                   std::size_t max_concurrent,
                                   WorkloadPolicy policy) {
  WorkloadOptions options;
  options.policy = policy;
  options.max_concurrent = max_concurrent;
  options.stats = &fixture->stats();
  // Pinned so the closed-system trajectory stays comparable across
  // revisions; the Poisson section below exercises the cost-derived
  // admission footprint.
  options.footprint_from_stats = false;
  // Same reason: summary-exact estimates are benched by workload_summary.
  options.summary = false;
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const char* query : queries) {
    NAVPATH_RETURN_NOT_OK(
        executor.Add(query, PaperPlan(PlanKind::kXSchedule)));
  }
  return executor.Run();
}

/// Open system: `jobs` queries drawn round-robin from the mix arrive with
/// exponential (Poisson-process) inter-arrival times in simulated time,
/// seeded for reproducibility.
Result<WorkloadResult> RunPoisson(XMarkFixture* fixture, std::size_t jobs,
                                  SimTime mean_interarrival,
                                  std::uint64_t seed,
                                  WorkloadPolicy policy) {
  WorkloadOptions options;
  options.policy = policy;
  options.stats = &fixture->stats();
  options.summary = false;  // longitudinal trajectory; see RunWorkload
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  Random rng(seed);
  SimTime arrival = 0;
  constexpr std::size_t kMixSize = std::size(kWorkloadQueries);
  for (std::size_t i = 0; i < jobs; ++i) {
    arrival += static_cast<SimTime>(
        -static_cast<double>(mean_interarrival) *
        std::log1p(-rng.NextDouble()));
    NAVPATH_RETURN_NOT_OK(executor.Add(kWorkloadQueries[i % kMixSize],
                                       PaperPlan(PlanKind::kXSchedule),
                                       arrival));
  }
  return executor.Run();
}

void RecordRun(JsonWriter* json, std::size_t n, const char* mode,
               WorkloadPolicy policy, const WorkloadResult& result) {
  json->BeginObject();
  json->Key("n").Value(static_cast<std::uint64_t>(n));
  json->Key("mode").Value(mode);
  json->Key("policy").Value(WorkloadPolicyName(policy));
  json->Key("total_seconds").Value(result.total_seconds());
  json->Key("cpu_seconds").Value(SimClock::ToSeconds(result.cpu_time));
  json->Key("disk_reads").Value(result.metrics.disk_reads);
  json->Key("async_requests").Value(result.metrics.async_requests);
  json->Key("requests_merged").Value(result.metrics.requests_merged);
  json->Key("elevator_depth_mean").Value(result.mean_elevator_depth());
  json->Key("elevator_depth_max")
      .Value(result.metrics.elevator_depth_max);
  json->Key("seek_pages").Value(result.metrics.disk_seek_pages);
  // Scheduler-side observability: how the policy saw the drive's pending
  // pool, and (hybrid) how it classified the active set.
  if (const HistogramSummary* depth =
          result.scheduler.FindHistogram("sched.pool_depth")) {
    json->Key("sched_pool_depth_p50").Value(depth->p50);
    json->Key("sched_pool_depth_mean").Value(depth->mean);
  }
  json->Key("sched_classified_io_bound")
      .Value(result.scheduler.CounterOr("sched.classified.io_bound"));
  json->Key("sched_classified_cpu_bound")
      .Value(result.scheduler.CounterOr("sched.classified.cpu_bound"));
  json->Key("turnaround_seconds").BeginArray();
  for (const WorkloadQueryResult& q : result.queries) {
    json->Value(q.turnaround_seconds());
  }
  json->EndArray();
  json->Key("counts").BeginArray();
  for (const WorkloadQueryResult& q : result.queries) {
    json->Value(q.count);
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.1 : 0.25;
  std::printf("Workload throughput — N concurrent XSchedule queries, "
              "scale %.2f\n", sf);
  auto fixture = XMarkFixture::Create(sf);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }

  // The hybrid policy's tight 1.05x bounds are a claim about the
  // page-resident regime: its cheap phase must still be (mostly) cached
  // when the expensive phase starts. With the document well past the
  // buffer pool the re-reads are forced by capacity, not scheduling, and
  // the bench instead asserts strict dominance between the parents.
  const bool page_resident =
      (*fixture)->doc().pages <= 2 * (*fixture)->db()->options().buffer_pages;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("workload_throughput");
  json.Key("schema_version").Value(static_cast<std::uint64_t>(1));
  json.Key("scale_factor").Value(sf);
  json.Key("plan").Value("XSchedule");
  json.Key("queries").BeginArray();
  for (const char* q : kWorkloadQueries) json.Value(q);
  json.EndArray();
  json.Key("runs").BeginArray();

  PrintTableHeader(
      "sequential vs interleaved (round-robin / SJF / hybrid)",
      {"N", "seq[s]", "rr[s]", "sjf[s]", "hyb[s]", "speedup", "merged",
       "depth"});

  bool n4_ok = false;
  bool hybrid_ok = true;
  double rr8_seconds = 0.0;
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    const auto queries = std::span(kWorkloadQueries).first(n);
    auto sequential =
        RunWorkload(fixture->get(), queries, 1, WorkloadPolicy::kRoundRobin);
    sequential.status().AbortIfNotOk();
    RecordRun(&json, n, "sequential", WorkloadPolicy::kRoundRobin,
              *sequential);

    const WorkloadPolicy policies[] = {
        WorkloadPolicy::kRoundRobin,
        WorkloadPolicy::kShortestRemainingCost,
        WorkloadPolicy::kHybrid,
    };
    constexpr int kPolicies = 3;
    double seconds[kPolicies] = {};
    double p50[kPolicies] = {};
    WorkloadResult rr;
    for (int p = 0; p < kPolicies; ++p) {
      auto interleaved =
          RunWorkload(fixture->get(), queries, 0, policies[p]);
      interleaved.status().AbortIfNotOk();
      RecordRun(&json, n, "interleaved", policies[p], *interleaved);
      seconds[p] = interleaved->total_seconds();
      Histogram turnaround;
      for (const WorkloadQueryResult& q : interleaved->queries) {
        turnaround.Record(static_cast<std::uint64_t>(q.turnaround()));
      }
      p50[p] = SimClock::ToSeconds(
          static_cast<SimTime>(turnaround.ValueAtQuantile(0.50)));
      if (p == 0) rr = std::move(*interleaved);
    }

    char speedup[16], merged[24], depth[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  sequential->total_seconds() / seconds[0]);
    std::snprintf(merged, sizeof(merged), "%llu",
                  static_cast<unsigned long long>(
                      rr.metrics.requests_merged));
    std::snprintf(depth, sizeof(depth), "%.1f->%.1f",
                  sequential->mean_elevator_depth(),
                  rr.mean_elevator_depth());
    PrintTableRow({std::to_string(n),
                   FormatSeconds(sequential->total_seconds()),
                   FormatSeconds(seconds[0]), FormatSeconds(seconds[1]),
                   FormatSeconds(seconds[2]), speedup, merged, depth});

    if (n == 4) {
      n4_ok = seconds[0] < sequential->total_seconds() &&
              rr.mean_elevator_depth() >
                  sequential->mean_elevator_depth();
    }
    if (n >= 4) {
      // The hybrid's contract: SJF-class median turnaround without
      // SJF's makespan collapse (a few percent of round-robin's).
      const double p50_ratio = p50[2] / p50[1];
      const double makespan_ratio = seconds[2] / seconds[0];
      std::printf("    hybrid at N=%zu: p50 %.2fx of SJF, makespan %.2fx "
                  "of round-robin\n", n, p50_ratio, makespan_ratio);
      if (n == 8) {
        hybrid_ok = page_resident
                        ? p50_ratio <= 1.05 && makespan_ratio <= 1.05
                        : p50[2] < p50[0] && seconds[2] < seconds[1];
      }
    }
    if (n == 8) rr8_seconds = seconds[0];
  }

  json.EndArray();

  // Open-system section: Poisson arrivals at ~70% of the round-robin
  // service rate measured above, so queues form but drain. Latency is
  // reported as turnaround percentiles (arrival to completion), the
  // number the closed-system makespan sweep cannot see.
  const std::size_t poisson_jobs = FastBenchMode() ? 16 : 32;
  const SimTime mean_interarrival = static_cast<SimTime>(
      rr8_seconds / 8.0 / 0.7 * static_cast<double>(kSimSecond));
  constexpr std::uint64_t kPoissonSeed = 4242;
  std::printf("\n== Poisson arrivals (open system, %zu jobs, mean "
              "inter-arrival %.3f s, seed %llu) ==\n",
              poisson_jobs, SimClock::ToSeconds(mean_interarrival),
              static_cast<unsigned long long>(kPoissonSeed));
  PrintTableHeader("turnaround percentiles (arrival -> completion)",
                   {"policy", "makespan[s]", "p50[s]", "p95[s]", "p99[s]",
                    "merged"});

  json.Key("poisson").BeginObject();
  json.Key("seed").Value(kPoissonSeed);
  json.Key("jobs").Value(static_cast<std::uint64_t>(poisson_jobs));
  json.Key("mean_interarrival_seconds")
      .Value(SimClock::ToSeconds(mean_interarrival));
  json.Key("runs").BeginArray();
  for (const WorkloadPolicy policy :
       {WorkloadPolicy::kRoundRobin, WorkloadPolicy::kShortestRemainingCost,
        WorkloadPolicy::kHybrid}) {
    auto open = RunPoisson(fixture->get(), poisson_jobs, mean_interarrival,
                           kPoissonSeed, policy);
    open.status().AbortIfNotOk();
    Histogram turnaround;
    for (const WorkloadQueryResult& q : open->queries) {
      turnaround.Record(static_cast<std::uint64_t>(q.turnaround()));
    }
    const double p50 =
        SimClock::ToSeconds(static_cast<SimTime>(
            turnaround.ValueAtQuantile(0.50)));
    const double p95 =
        SimClock::ToSeconds(static_cast<SimTime>(
            turnaround.ValueAtQuantile(0.95)));
    const double p99 =
        SimClock::ToSeconds(static_cast<SimTime>(
            turnaround.ValueAtQuantile(0.99)));
    char merged[24];
    std::snprintf(merged, sizeof(merged), "%llu",
                  static_cast<unsigned long long>(
                      open->metrics.requests_merged));
    PrintTableRow({WorkloadPolicyName(policy),
                   FormatSeconds(open->total_seconds()),
                   FormatSeconds(p50), FormatSeconds(p95),
                   FormatSeconds(p99), merged});

    json.BeginObject();
    json.Key("policy").Value(WorkloadPolicyName(policy));
    json.Key("makespan_seconds").Value(open->total_seconds());
    json.Key("mean_turnaround_seconds")
        .Value(SimClock::ToSeconds(
            static_cast<SimTime>(turnaround.Mean())));
    json.Key("p50_seconds").Value(p50);
    json.Key("p95_seconds").Value(p95);
    json.Key("p99_seconds").Value(p99);
    json.Key("requests_merged").Value(open->metrics.requests_merged);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  // Two queries over disjoint regions: the head ping-pongs between the
  // two areas, so interleaving gains little or loses (the N=2 rows above
  // are a same-region pair). Runs last, because a run on this store
  // starts where the previous one left the drive head.
  constexpr const char* kDisjointPair[] = {"/site/regions//item",
                                           "/site/people/person/email"};
  json.Key("disjoint_pair").BeginObject();
  json.Key("queries").BeginArray();
  for (const char* q : kDisjointPair) json.Value(q);
  json.EndArray();
  json.Key("runs").BeginArray();
  auto pair_sequential = RunWorkload(fixture->get(), kDisjointPair, 1,
                                     WorkloadPolicy::kRoundRobin);
  pair_sequential.status().AbortIfNotOk();
  RecordRun(&json, 2, "sequential", WorkloadPolicy::kRoundRobin,
            *pair_sequential);
  auto pair_interleaved = RunWorkload(fixture->get(), kDisjointPair, 0,
                                      WorkloadPolicy::kRoundRobin);
  pair_interleaved.status().AbortIfNotOk();
  RecordRun(&json, 2, "interleaved", WorkloadPolicy::kRoundRobin,
            *pair_interleaved);
  json.EndArray();
  json.EndObject();
  std::printf("\ndisjoint pair %s with %s (round-robin): back-to-back "
              "%.2f s, interleaved %.2f s (%.2fx), merged %llu, depth "
              "%.1f->%.1f\n",
              kDisjointPair[0], kDisjointPair[1],
              pair_sequential->total_seconds(),
              pair_interleaved->total_seconds(),
              pair_sequential->total_seconds() /
                  pair_interleaved->total_seconds(),
              static_cast<unsigned long long>(
                  pair_interleaved->metrics.requests_merged),
              pair_sequential->mean_elevator_depth(),
              pair_interleaved->mean_elevator_depth());

  json.EndObject();
  const std::string path = BenchTrajectoryPath("BENCH_workload.json");
  const Status wrote = WriteTextFile(path, json.str() + "\n");
  if (!wrote.ok()) {
    std::fprintf(stderr, "FAILED writing %s: %s\n", path.c_str(),
                 wrote.ToString().c_str());
    return 1;
  }
  std::printf("\ntrajectory written to %s\n", path.c_str());
  std::printf("N=4 interleaved beats sequential with deeper elevator "
              "pool: %s\n", n4_ok ? "yes" : "NO");
  if (page_resident) {
    std::printf("N=8 hybrid holds SJF p50 and round-robin makespan within "
                "5%%: %s\n", hybrid_ok ? "yes" : "NO");
  } else {
    std::printf("N=8 hybrid dominates its parents (p50 below round-robin's, "
                "makespan below SJF's; document exceeds the buffer pool, "
                "see DESIGN.md Sec. 7): %s\n", hybrid_ok ? "yes" : "NO");
  }
  return n4_ok && hybrid_ok ? 0 : 1;
}
