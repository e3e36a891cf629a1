// Always-on serving layer under a Poisson open system: two tenant
// classes (gold, weight 4, with a turnaround deadline; bronze, weight 1)
// submit the paper's query mix through the admission front-end at
// {0.5x, 1x, 2x} of the measured service capacity.
//
// Reports p50/p95/p99 turnaround, shed rate, and degrade rate per tenant
// class at each load point. Exits nonzero when:
//   - the 0.5x run sheds or degrades anything, or its pull schedule and
//     makespan deviate from a serving-layer-off executor run given the
//     same arrivals (the underloaded serving layer must be transparent),
//   - the 2x run fails to shed or degrade (overload must trigger explicit
//     responses, not unbounded queueing),
//   - the 2x run's gold p99 turnaround exceeds the structural bound from
//     its bounded queue: (queue capacity + concurrency + 1) admitted
//     queries ahead, each at most twice the slowest solo service time.
//
// Appends a "serve" section to the BENCH_workload.json trajectory
// (written by workload_throughput; schema note in DESIGN.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "serve/server.h"

namespace {

using namespace navpath;

constexpr double kScale = 0.05;
constexpr std::size_t kArrivals = 36;
constexpr std::uint64_t kSeed = 20260808;

constexpr const char* kMix[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site//keyword",
    "/site/open_auctions//bidder",
};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

struct TenantStats {
  std::size_t submitted = 0;
  std::size_t shed = 0;
  std::size_t degraded = 0;
  std::vector<double> turnaround_seconds;  // completed queries only
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto index = static_cast<std::size_t>(q * n);
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

ServeOptions ServeConfig(const DocumentStats* stats, SimTime gold_slack) {
  ServeOptions options;
  options.tenants.resize(2);
  options.tenants[0].name = "gold";
  options.tenants[0].queue_capacity = 12;
  options.tenants[0].weight = 4.0;
  options.tenants[0].deadline_slack = gold_slack;
  options.tenants[1].name = "bronze";
  options.tenants[1].queue_capacity = 6;
  options.tenants[1].weight = 1.0;
  options.workload.policy = WorkloadPolicy::kHybrid;
  options.workload.stats = stats;
  // Longitudinal trajectory: DRR charging from DocumentStats estimates.
  options.workload.summary = false;
  options.workload.max_concurrent = 4;
  options.degrade_queue_depth = 4;
  options.shed_queue_depth = 10;
  options.recover_hold = 3;
  return options;
}

struct ArrivalPlan {
  std::size_t tenant;
  std::string query;
  SimTime at;
};

/// A merged Poisson arrival stream at `load` times capacity: exponential
/// interarrivals with mean service_time / load, tenants alternating.
std::vector<ArrivalPlan> PoissonArrivals(double load, SimTime mean_service) {
  Random rng(kSeed);
  std::vector<ArrivalPlan> plan;
  const double mean_gap = static_cast<double>(mean_service) / load;
  double at = 0.0;
  for (std::size_t i = 0; i < kArrivals; ++i) {
    double u = rng.NextDouble();
    if (u <= 0.0) u = 1e-12;
    at += -mean_gap * std::log(u);
    plan.push_back({i % 2, kMix[i % kMixSize], static_cast<SimTime>(at)});
  }
  return plan;
}

}  // namespace

int main() {
  std::printf("Serving layer — Poisson sweep at scale %.2f, %zu arrivals\n",
              kScale, kArrivals);
  auto fixture = XMarkFixture::Create(kScale);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  XMarkFixture* fx = fixture->get();

  // Capacity measurement. max_service (slowest solo query, cold buffer)
  // feeds the structural p99 bound; the sustainable completion interval
  // comes from a closed concurrent run of the mix under the serving
  // configuration, since the executor overlaps I/O across
  // max_concurrent queries and its capacity is far above one stream's.
  SimTime max_service = 0;
  for (const char* q : kMix) {
    auto solo = fx->Run(q, PaperPlan(PlanKind::kXSchedule));
    solo.status().AbortIfNotOk();
    max_service = std::max(max_service, solo->total_time);
  }
  SimTime mean_service = 0;
  {
    constexpr std::size_t kClosedQueries = 2 * kMixSize;
    WorkloadExecutor closed(fx->db(), fx->doc(),
                            ServeConfig(&fx->stats(), 0).workload);
    for (std::size_t i = 0; i < kClosedQueries; ++i) {
      closed.Add(kMix[i % kMixSize], PaperPlan(PlanKind::kXSchedule))
          .AbortIfNotOk();
    }
    auto run = closed.Run();
    run.status().AbortIfNotOk();
    mean_service = run->total_time / kClosedQueries;
  }
  std::printf(
      "measured capacity: one completion per %.3fs sustained, slowest "
      "solo query %.3fs\n",
      static_cast<double>(mean_service) / 1e9,
      static_cast<double>(max_service) / 1e9);

  JsonWriter json;
  json.BeginObject();
  json.Key("scale_factor").Value(kScale);
  json.Key("arrivals").Value(static_cast<std::uint64_t>(kArrivals));
  json.Key("seed").Value(kSeed);
  json.Key("mean_service_seconds")
      .Value(static_cast<double>(mean_service) / 1e9);
  json.Key("points").BeginArray();

  PrintTableHeader("Poisson sweep (per-tenant turnaround and responses)",
                   {"load", "tenant", "done", "shed", "degr", "p50[s]",
                    "p95[s]", "p99[s]"});

  bool ok = true;
  for (const double load : {0.5, 1.0, 2.0}) {
    ServeOptions options = ServeConfig(&fx->stats(), 20 * mean_service);
    const std::vector<ArrivalPlan> arrivals =
        PoissonArrivals(load, mean_service);

    std::vector<std::size_t> serve_schedule;
    options.workload.on_pull = [&](std::size_t job, std::size_t) {
      serve_schedule.push_back(job);
    };
    Server server(fx->db(), fx->doc(), options);
    for (const ArrivalPlan& a : arrivals) {
      server.Submit(a.tenant, a.query, PaperPlan(PlanKind::kXSchedule),
                    a.at)
          .AbortIfNotOk();
    }
    auto served = server.Run();
    served.status().AbortIfNotOk();

    TenantStats per_tenant[2];
    for (const ServeOutcome& out : served->outcomes) {
      TenantStats& t = per_tenant[out.tenant];
      ++t.submitted;
      if (out.shed) {
        ++t.shed;
        continue;
      }
      if (out.degraded) ++t.degraded;
      if (out.status.ok()) {
        t.turnaround_seconds.push_back(
            static_cast<double>(out.turnaround()) / 1e9);
      }
    }
    const std::size_t total_shed = per_tenant[0].shed + per_tenant[1].shed;
    const std::size_t total_degraded =
        per_tenant[0].degraded + per_tenant[1].degraded;

    char load_s[8];
    std::snprintf(load_s, sizeof(load_s), "%.1fx", load);
    json.BeginObject();
    json.Key("load").Value(load);
    json.Key("shed").Value(static_cast<std::uint64_t>(total_shed));
    json.Key("degraded").Value(static_cast<std::uint64_t>(total_degraded));
    json.Key("makespan_seconds").Value(served->workload.total_seconds());
    json.Key("tenants").BeginArray();
    for (std::size_t t = 0; t < 2; ++t) {
      const TenantStats& stats = per_tenant[t];
      const double p50 = Percentile(stats.turnaround_seconds, 0.50);
      const double p95 = Percentile(stats.turnaround_seconds, 0.95);
      const double p99 = Percentile(stats.turnaround_seconds, 0.99);
      PrintTableRow({load_s, options.tenants[t].name,
                     std::to_string(stats.turnaround_seconds.size()),
                     std::to_string(stats.shed),
                     std::to_string(stats.degraded), FormatSeconds(p50),
                     FormatSeconds(p95), FormatSeconds(p99)});
      json.BeginObject();
      json.Key("name").Value(options.tenants[t].name);
      json.Key("submitted")
          .Value(static_cast<std::uint64_t>(stats.submitted));
      json.Key("completed")
          .Value(
              static_cast<std::uint64_t>(stats.turnaround_seconds.size()));
      json.Key("shed").Value(static_cast<std::uint64_t>(stats.shed));
      json.Key("degraded")
          .Value(static_cast<std::uint64_t>(stats.degraded));
      json.Key("shed_rate")
          .Value(stats.submitted == 0
                     ? 0.0
                     : static_cast<double>(stats.shed) /
                           static_cast<double>(stats.submitted));
      json.Key("degrade_rate")
          .Value(stats.submitted == 0
                     ? 0.0
                     : static_cast<double>(stats.degraded) /
                           static_cast<double>(stats.submitted));
      json.Key("p50_seconds").Value(p50);
      json.Key("p95_seconds").Value(p95);
      json.Key("p99_seconds").Value(p99);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();

    if (load == 0.5) {
      // Underload gate: nothing shed or degraded, and the serving layer
      // is transparent — byte-identical to a serving-layer-off run.
      if (total_shed != 0 || total_degraded != 0) {
        std::fprintf(stderr,
                     "0.5x: shed %zu degraded %zu (want 0/0)\n",
                     total_shed, total_degraded);
        ok = false;
      }
      std::vector<std::size_t> off_schedule;
      WorkloadOptions off = ServeConfig(&fx->stats(), 0).workload;
      off.on_pull = [&](std::size_t job, std::size_t) {
        off_schedule.push_back(job);
      };
      WorkloadExecutor executor(fx->db(), fx->doc(), off);
      for (const ArrivalPlan& a : arrivals) {
        const SimTime slack = a.tenant == 0 ? 20 * mean_service : 0;
        executor
            .Add(a.query, PaperPlan(PlanKind::kXSchedule), a.at,
                 slack == 0 ? 0 : a.at + slack)
            .AbortIfNotOk();
      }
      auto off_run = executor.Run();
      off_run.status().AbortIfNotOk();
      if (serve_schedule != off_schedule) {
        std::fprintf(stderr,
                     "0.5x: pull schedule deviates from the "
                     "serving-layer-off run\n");
        ok = false;
      }
      if (served->workload.total_time != off_run->total_time) {
        std::fprintf(stderr,
                     "0.5x: makespan %.3fs vs %.3fs serving-layer-off\n",
                     served->workload.total_seconds(),
                     off_run->total_seconds());
        ok = false;
      }
    }
    if (load == 2.0) {
      // Overload gate: explicit responses fired and the gold tenant's
      // p99 stays under the structural bound its bounded queue implies.
      if (total_shed == 0) {
        std::fprintf(stderr, "2x: nothing shed under 2x overload\n");
        ok = false;
      }
      if (total_degraded == 0) {
        std::fprintf(stderr, "2x: nothing degraded under 2x overload\n");
        ok = false;
      }
      const double gold_p99 = Percentile(
          per_tenant[0].turnaround_seconds, 0.99);
      const double bound =
          static_cast<double>(options.tenants[0].queue_capacity +
                              options.workload.max_concurrent + 1) *
          2.0 * static_cast<double>(max_service) / 1e9;
      if (gold_p99 > bound) {
        std::fprintf(stderr,
                     "2x: gold p99 %.3fs exceeds the bounded-queue "
                     "ceiling %.3fs\n",
                     gold_p99, bound);
        ok = false;
      }
    }
  }
  json.EndArray();
  json.EndObject();

  // Splice the section into the trajectory workload_throughput writes;
  // stand alone when it has not run yet.
  const std::string path = BenchTrajectoryPath("BENCH_workload.json");
  std::string doc;
  if (auto existing = ReadTextFile(path); existing.ok()) {
    doc = *std::move(existing);
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    if (const std::size_t at = doc.find(",\"serve\":");
        at != std::string::npos) {
      doc.resize(at);
      doc += "}";
    }
  }
  if (!doc.empty() && doc.back() == '}') {
    doc.pop_back();
    doc += ",\"serve\":" + json.str() + "}\n";
  } else {
    doc = "{\"bench\":\"workload_serve\",\"schema_version\":1,\"serve\":" +
          json.str() + "}\n";
  }
  const Status wrote = WriteTextFile(path, doc);
  if (!wrote.ok()) {
    std::fprintf(stderr, "trajectory: %s\n", wrote.ToString().c_str());
    ok = false;
  } else {
    std::printf("wrote %s (serve section)\n", path.c_str());
  }

  std::printf("workload serve: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
