// Path-summary synopsis benchmark: cluster-access reduction on the
// paper's queries at scale 0.25 (NAVPATH_BENCH_FAST=1 drops to 0.1).
//
// Three claims, each a gate (nonzero exit when violated):
//   - Q7 (count-mode) and a provably-empty path are answered from the
//     synopsis with ZERO cluster entries and zero page reads,
//   - Q15 (node-mode, 13 steps deep) under XScan reads measurably fewer
//     pages when the sweep is restricted to the touched summary extents,
//   - the summary-off arm is byte-identical (counts, simulated time,
//     reads) to a database that never built a synopsis.
//
// Appends a "summary" section to the BENCH_workload.json trajectory
// (written by workload_throughput; schema note in DESIGN.md).
#include <cstdio>
#include <string>
#include <tuple>

#include "benchlib/harness.h"
#include "compiler/executor.h"

namespace {

using namespace navpath;

struct Arm {
  std::uint64_t count = 0;
  std::uint64_t clusters = 0;
  std::uint64_t disk_reads = 0;
  double seconds = 0;
};

Result<Arm> RunArm(XMarkFixture* fixture, const std::string& query,
                   PlanKind kind, bool use_summary) {
  PlanOptions plan = PaperPlan(kind);
  plan.use_summary = use_summary;
  NAVPATH_ASSIGN_OR_RETURN(const QueryRunResult result,
                           fixture->Run(query, plan));
  Arm arm;
  arm.count = result.count;
  arm.clusters = result.metrics.clusters_visited;
  arm.disk_reads = result.metrics.disk_reads;
  arm.seconds = result.total_seconds();
  return arm;
}

void RecordArm(JsonWriter* json, const char* key, const Arm& arm) {
  json->Key(key).BeginObject();
  json->Key("count").Value(arm.count);
  json->Key("clusters_visited").Value(arm.clusters);
  json->Key("disk_reads").Value(arm.disk_reads);
  json->Key("seconds").Value(arm.seconds);
  json->EndObject();
}

}  // namespace

int main() {
  const double sf = FastBenchMode() ? 0.1 : 0.25;
  std::printf("Path-summary synopsis — cluster accesses on/off, scale %.2f\n",
              sf);
  auto fixture = XMarkFixture::Create(sf);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture: %s\n", fixture.status().ToString().c_str());
    return 1;
  }

  struct Case {
    const char* name;
    const char* query;
    PlanKind kind;
    bool answerable;  // synopsis answers without navigating
  };
  const Case cases[] = {
      {"q6", kQ6Prime, PlanKind::kXSchedule, true},
      {"q7", kQ7, PlanKind::kXSchedule, true},
      {"q15", kQ15, PlanKind::kXScan, false},
      {"empty", "count(/site/regions/item)", PlanKind::kXSchedule, true},
  };

  JsonWriter json;
  json.BeginObject();
  json.Key("scale_factor").Value(sf);
  json.Key("cases").BeginArray();

  PrintTableHeader("summary on vs off",
                   {"query", "plan", "on:clus", "off:clus", "on:reads",
                    "off:reads", "count"});
  bool ok = true;
  for (const Case& c : cases) {
    auto on = RunArm(fixture->get(), c.query, c.kind, true);
    auto off = RunArm(fixture->get(), c.query, c.kind, false);
    on.status().AbortIfNotOk();
    off.status().AbortIfNotOk();
    PrintTableRow({c.name, PlanKindName(c.kind),
                   std::to_string(on->clusters), std::to_string(off->clusters),
                   std::to_string(on->disk_reads),
                   std::to_string(off->disk_reads),
                   std::to_string(on->count)});
    json.BeginObject();
    json.Key("name").Value(c.name);
    json.Key("query").Value(c.query);
    json.Key("plan").Value(PlanKindName(c.kind));
    RecordArm(&json, "on", *on);
    RecordArm(&json, "off", *off);
    json.EndObject();

    if (on->count != off->count) {
      std::fprintf(stderr, "%s: summary changed the answer (%llu vs %llu)\n",
                   c.name, static_cast<unsigned long long>(on->count),
                   static_cast<unsigned long long>(off->count));
      ok = false;
    }
    if (c.answerable) {
      // Navigation-free: the synopsis must answer without entering a
      // single cluster or reading a page.
      if (on->clusters != 0 || on->disk_reads != 0) {
        std::fprintf(stderr, "%s: expected zero cluster accesses, got "
                     "%llu clusters / %llu reads\n", c.name,
                     static_cast<unsigned long long>(on->clusters),
                     static_cast<unsigned long long>(on->disk_reads));
        ok = false;
      }
      if (std::string(c.name) != "empty" && off->clusters == 0) {
        std::fprintf(stderr, "%s: off arm entered no cluster — the drop "
                     "gate is vacuous\n", c.name);
        ok = false;
      }
    } else {
      // Navigational, restricted sweep: a measurable drop, not parity.
      if (on->disk_reads >= off->disk_reads) {
        std::fprintf(stderr, "%s: restricted sweep read %llu pages, "
                     "unrestricted %llu — no drop\n", c.name,
                     static_cast<unsigned long long>(on->disk_reads),
                     static_cast<unsigned long long>(off->disk_reads));
        ok = false;
      }
    }
  }
  json.EndArray();

  // Off-arm byte-identity: use_summary=false on a synopsis-carrying
  // database behaves exactly like a database that never built one. Both
  // fixtures are fresh (cold starts keep the disk-head position, so the
  // two sides must see identical run histories).
  FixtureOptions no_summary;
  no_summary.db.import.build_summary = false;
  auto with = XMarkFixture::Create(sf);
  auto bare = XMarkFixture::Create(sf, no_summary);
  with.status().AbortIfNotOk();
  bare.status().AbortIfNotOk();
  bool identical = true;
  for (const Case& c : cases) {
    auto off = RunArm(with->get(), c.query, c.kind, false);
    auto none = RunArm(bare->get(), c.query, c.kind, true);
    off.status().AbortIfNotOk();
    none.status().AbortIfNotOk();
    identical &= std::tie(off->count, off->clusters, off->disk_reads,
                          off->seconds) ==
                 std::tie(none->count, none->clusters, none->disk_reads,
                          none->seconds);
  }
  json.Key("off_arm_identical").Value(identical);
  json.EndObject();
  if (!identical) {
    std::fprintf(stderr, "summary-off arm diverges from a synopsis-free "
                 "database\n");
    ok = false;
  }

  ok = WriteWorkloadSection("summary", json.str()) && ok;

  std::printf("workload summary: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
