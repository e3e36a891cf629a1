// Tests for the serving layer: an underloaded server must be transparent
// (byte-identical schedule and metrics to a serving-layer-off run), an
// overloaded one must shed at bounded queues with ResourceExhausted,
// degrade admitted queries to the cost model's cheaper tier without
// changing answers, and recover to full fidelity with hysteresis. The
// whole pipeline must be deterministic (same seed + arrivals => same
// admission order, shed set and finish times) and survive one query's
// media corruption without failing its neighbors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "serve/server.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"
#include "storage/page.h"
#include "tests/test_util.h"
#include "txn/txn.h"

namespace navpath {
namespace {

const char* const kServeQueries[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site//keyword",
};

ServeOptions TwoTenantOptions(const DocumentStats* stats) {
  ServeOptions options;
  options.tenants.resize(2);
  options.tenants[0].name = "gold";
  options.tenants[0].queue_capacity = 16;
  options.tenants[0].weight = 4.0;
  options.tenants[1].name = "bronze";
  options.tenants[1].queue_capacity = 16;
  options.tenants[1].weight = 1.0;
  options.workload.policy = WorkloadPolicy::kHybrid;
  options.workload.stats = stats;
  return options;
}

TEST(ServeTest, UnderloadIsByteIdenticalToServingLayerOff) {
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();

  // Arrivals far apart relative to service time: the controller never
  // leaves the normal state and admission is the executor's own FIFO.
  struct Arrival {
    std::size_t tenant;
    const char* query;
    SimTime at;
  };
  const std::vector<Arrival> arrivals = {
      {0, kServeQueries[0], 0},
      {1, kServeQueries[1], 0},
      {0, kServeQueries[2], 400 * kSimMillisecond},
      {1, kServeQueries[0], 900 * kSimMillisecond},
      {0, kServeQueries[1], 1400 * kSimMillisecond},
  };
  const SimTime deadline_slack = 5 * kSimSecond;

  // Serving-layer-off reference: the plain executor with the same
  // arrivals and deadlines, pull schedule recorded.
  std::vector<std::size_t> off_schedule;
  WorkloadOptions off = TwoTenantOptions(&fx->stats()).workload;
  off.on_pull = [&](std::size_t job, std::size_t) {
    off_schedule.push_back(job);
  };
  WorkloadExecutor executor(fx->db(), fx->doc(), off);
  for (const Arrival& a : arrivals) {
    ASSERT_TRUE(executor
                    .Add(a.query, PaperPlan(PlanKind::kXSchedule), a.at,
                         a.at + deadline_slack)
                    .ok());
  }
  auto off_run = executor.Run();
  ASSERT_TRUE(off_run.ok()) << off_run.status().ToString();

  std::vector<std::size_t> serve_schedule;
  ServeOptions options = TwoTenantOptions(&fx->stats());
  options.workload.on_pull = [&](std::size_t job, std::size_t) {
    serve_schedule.push_back(job);
  };
  Server server(fx->db(), fx->doc(), options);
  for (const Arrival& a : arrivals) {
    ASSERT_TRUE(server
                    .Submit(a.tenant, a.query,
                            PaperPlan(PlanKind::kXSchedule), a.at,
                            a.at + deadline_slack)
                    .ok());
  }
  auto served = server.Run();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // Byte-identity: the serving layer replayed Run()'s exact decisions.
  EXPECT_EQ(serve_schedule, off_schedule);
  EXPECT_EQ(served->workload.total_time, off_run->total_time);
  EXPECT_EQ(served->workload.metrics.disk_reads,
            off_run->metrics.disk_reads);

  // Nothing shed, nothing degraded, FIFO admission order preserved.
  EXPECT_TRUE(served->shed.empty());
  EXPECT_EQ(served->final_state, OverloadState::kNormal);
  ASSERT_EQ(served->admission_order.size(), arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(served->admission_order[i], i);
    EXPECT_FALSE(served->outcomes[i].shed);
    EXPECT_FALSE(served->outcomes[i].degraded);
    EXPECT_TRUE(served->outcomes[i].status.ok());
    EXPECT_EQ(served->outcomes[i].count, off_run->queries[i].count);
  }
}

TEST(ServeTest, OverloadShedsDegradesAndRecovers) {
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();

  // Clean per-query expected counts (degradation must not change them).
  std::vector<std::uint64_t> expected;
  for (const char* q : kServeQueries) {
    auto solo = fx->Run(q, PaperPlan(PlanKind::kXSchedule));
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    expected.push_back(solo->count);
  }

  ServeOptions options = TwoTenantOptions(&fx->stats());
  options.workload.max_concurrent = 2;  // forces a backlog under a burst
  options.tenants[0].queue_capacity = 6;
  options.tenants[1].queue_capacity = 2;  // bronze overflows first
  options.degrade_queue_depth = 3;
  options.shed_queue_depth = 6;
  options.recover_hold = 2;
  Server server(fx->db(), fx->doc(), options);

  // A burst well past the queue bounds, then a drained tail that lets the
  // hysteresis walk the controller back to normal.
  std::vector<std::size_t> burst_tenants;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::size_t tenant = i % 2;
    burst_tenants.push_back(tenant);
    ASSERT_TRUE(server
                    .Submit(tenant, kServeQueries[i % 3],
                            PaperPlan(PlanKind::kXSchedule),
                            static_cast<SimTime>(i) * kSimMicrosecond)
                    .ok());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(server
                    .Submit(0, kServeQueries[i % 3],
                            PaperPlan(PlanKind::kXSchedule),
                            5 * kSimSecond +
                                static_cast<SimTime>(i) * kSimSecond)
                    .ok());
  }
  auto served = server.Run();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // All three responses fired: shed, degrade (saw_degraded below) and
  // recover. The burst lands in one arrival batch, so the controller
  // escalates straight to shed; recovery then walks back through degrade
  // to normal.
  EXPECT_GT(served->metrics.CounterOr("serve.state.shed_entered"), 0u);
  EXPECT_GT(served->metrics.CounterOr("serve.state.recovered"), 0u);
  EXPECT_EQ(served->final_state, OverloadState::kNormal);
  EXPECT_FALSE(served->shed.empty());

  bool saw_degraded = false;
  for (std::size_t i = 0; i < served->outcomes.size(); ++i) {
    const ServeOutcome& out = served->outcomes[i];
    if (out.shed) {
      EXPECT_TRUE(out.status.IsResourceExhausted())
          << out.status.ToString();
      // Shed outcomes never ran: turnaround must read zero, not a
      // wrapped finished_at(0) - arrival.
      EXPECT_EQ(out.turnaround(), 0u);
      // The rejection carries the tenant's budget context.
      const std::string tenant_name =
          options.tenants[out.tenant].name;
      EXPECT_NE(out.status.ToString().find(tenant_name), std::string::npos)
          << out.status.ToString();
      continue;
    }
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    saw_degraded = saw_degraded || out.degraded;
    // Degradation trades latency, never answers.
    const std::size_t q = i < 12 ? i % 3 : (i - 12) % 3;
    EXPECT_EQ(out.count, expected[q]) << i;
  }
  EXPECT_TRUE(saw_degraded);

  // The quiet tail arrived under a recovered controller: full fidelity.
  for (std::size_t i = 12; i < 16; ++i) {
    EXPECT_FALSE(served->outcomes[i].shed);
    EXPECT_FALSE(served->outcomes[i].degraded);
  }
}

TEST(ServeTest, OverloadBurstWithSubUnitShareStillAdmits) {
  // Regression: a simultaneous burst that trips the overload controller
  // before anything is admitted used to abort the serving loop when the
  // first DRR pass banked deficit without covering any head — a tenant
  // weight under 1 (validation only requires > 0) with the executor
  // still idle. Admission must make progress instead.
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();

  ServeOptions options;
  options.tenants.resize(1);
  options.tenants[0].name = "only";
  options.tenants[0].queue_capacity = 16;
  options.tenants[0].weight = 0.5;
  options.workload.policy = WorkloadPolicy::kHybrid;
  options.workload.stats = &fx->stats();
  Server server(fx->db(), fx->doc(), options);
  // Ten arrivals in one batch: past degrade_queue_depth (8), inside the
  // queue bound (16), so everything must eventually run.
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(server
                    .Submit(0, kServeQueries[i % 3],
                            PaperPlan(PlanKind::kXSchedule), 0)
                    .ok());
  }
  auto served = server.Run();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->shed.empty());
  EXPECT_EQ(served->admission_order.size(), 10u);
  for (const ServeOutcome& out : served->outcomes) {
    EXPECT_FALSE(out.shed);
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  }
}

TEST(ServeTest, BufferPressureAloneEntersDegrade) {
  // A backlog of half the degrade depth escalates to degrade only while
  // the active set's footprint holds the buffer budget hot; the queue
  // alone never reaches degrade_queue_depth here.
  const char* const kFirst = "/site//keyword";
  const char* const kQueued = "/site/regions//item";
  auto serve = [&](std::size_t buffer_pages) {
    FixtureOptions fixture_options;
    fixture_options.db.buffer_pages = buffer_pages;
    auto fixture = XMarkFixture::Create(0.005, fixture_options);
    EXPECT_TRUE(fixture.ok()) << fixture.status().ToString();
    XMarkFixture* fx = fixture->get();
    const PlanOptions plan = PaperPlan(PlanKind::kXSchedule);
    std::vector<std::uint64_t> solo;
    for (const char* q : {kFirst, kQueued}) {
      auto run = fx->Run(q, plan);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      solo.push_back(run->count);
    }

    ServeOptions options;
    options.tenants.resize(1);
    options.tenants[0].name = "only";
    options.workload.stats = &fx->stats();
    // Charge every XSchedule job its static queue_k + 2 = 102 pages.
    options.workload.footprint_from_stats = false;
    options.degrade_queue_depth = 8;
    options.shed_queue_depth = 16;
    Server server(fx->db(), fx->doc(), options);
    // The first query holds the budget while the other four queue.
    EXPECT_TRUE(server.Submit(0, kFirst, plan, 0).ok());
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(server.Submit(0, kQueued, plan, kSimMicrosecond).ok());
    }
    auto served = server.Run();
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    ServeResult result = *std::move(served);
    EXPECT_TRUE(result.shed.empty());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      EXPECT_TRUE(result.outcomes[i].status.ok()) << i;
      EXPECT_EQ(result.outcomes[i].count, solo[i == 0 ? 0 : 1]) << i;
    }
    return result;
  };
  auto degraded_count = [](const ServeResult& r) {
    return std::count_if(r.outcomes.begin(), r.outcomes.end(),
                         [](const ServeOutcome& o) { return o.degraded; });
  };

  // 120 pages: budget 90, so one 102-page job is already hot.
  const ServeResult hot = serve(120);
  EXPECT_EQ(hot.metrics.CounterOr("serve.state.degrade_entered"), 1u);
  EXPECT_EQ(hot.metrics.CounterOr("serve.state.shed_entered"), 0u);
  EXPECT_EQ(degraded_count(hot), 4);

  // 1000 pages: budget 750 admits all five without pressure.
  const ServeResult cool = serve(1000);
  EXPECT_EQ(cool.metrics.CounterOr("serve.state.degrade_entered"), 0u);
  EXPECT_EQ(cool.metrics.CounterOr("serve.state.shed_entered"), 0u);
  EXPECT_EQ(cool.metrics.CounterOr("serve.state.recovered"), 0u);
  EXPECT_EQ(degraded_count(cool), 0);
}

TEST(ServeTest, DeterministicAdmissionShedAndPriorityJumps) {
  // Same seed + same arrivals => byte-identical admission order, shed
  // set and finish times, run on two independent fixtures.
  auto run_once = [](std::uint64_t seed) {
    auto fixture = XMarkFixture::Create(0.005);
    EXPECT_TRUE(fixture.ok()) << fixture.status().ToString();
    XMarkFixture* fx = fixture->get();
    ServeOptions options = TwoTenantOptions(&fx->stats());
    options.workload.max_concurrent = 2;
    options.tenants[1].queue_capacity = 2;
    options.degrade_queue_depth = 3;
    options.shed_queue_depth = 6;
    options.tenants[0].deadline_slack = 100 * kSimMillisecond;
    Server server(fx->db(), fx->doc(), options);
    Random rng(seed);
    SimTime at = 0;
    for (std::size_t i = 0; i < 14; ++i) {
      at += rng.NextBounded(2 * kSimMillisecond);
      EXPECT_TRUE(server
                      .Submit(i % 2, kServeQueries[i % 3],
                              PaperPlan(PlanKind::kXSchedule), at)
                      .ok());
    }
    auto served = server.Run();
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    return *std::move(served);
  };
  const ServeResult a = run_once(99);
  const ServeResult b = run_once(99);
  EXPECT_EQ(a.admission_order, b.admission_order);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.workload.total_time, b.workload.total_time);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].shed, b.outcomes[i].shed) << i;
    EXPECT_EQ(a.outcomes[i].degraded, b.outcomes[i].degraded) << i;
    EXPECT_EQ(a.outcomes[i].finished_at, b.outcomes[i].finished_at) << i;
  }

  // Two runs of one binary cannot catch a change that moves the served
  // schedule, so the run is also pinned against a digest recorded by
  // building this test against an earlier commit. The run must shed and
  // degrade, or the digest would not cover those paths.
  ASSERT_FALSE(a.shed.empty());
  ASSERT_TRUE(std::any_of(a.outcomes.begin(), a.outcomes.end(),
                          [](const ServeOutcome& o) { return o.degraded; }));
  Fnv1a digest;
  for (const std::size_t i : a.admission_order) digest.Add(i);
  for (const std::size_t i : a.shed) digest.Add(i);
  for (const ServeOutcome& o : a.outcomes) {
    digest.Add(o.finished_at);
    digest.Add(o.degraded);
  }
  // Always 0 (nothing increments it); still hashed so the recorded
  // constant stays valid.
  digest.Add(a.workload.metrics.priority_jumps);
  EXPECT_EQ(digest.h, 0x2ab14ba9d4527289ull)
      << std::hex << "0x" << digest.h << "ull";
}

TEST(ServeTest, ValidationRejectsMalformedConfiguration) {
  auto fixture = XMarkFixture::Create(0.002);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();

  // Each bad configuration is caught by Run()'s entry validation, not an
  // assert mid-serve.
  auto expect_invalid = [&](const ServeOptions& options, const char* what) {
    Server server(fx->db(), fx->doc(), options);
    ASSERT_TRUE(server
                    .Submit(0, kServeQueries[0], PaperPlan(PlanKind::kSimple),
                            0)
                    .ok())
        << what;
    auto run = server.Run();
    EXPECT_TRUE(!run.ok() && run.status().IsInvalidArgument())
        << what << ": " << run.status().ToString();
  };

  ServeOptions base = TwoTenantOptions(&fx->stats());

  ServeOptions no_tenants = base;
  no_tenants.tenants.clear();
  {
    Server server(fx->db(), fx->doc(), no_tenants);
    EXPECT_TRUE(server.Submit(0, kServeQueries[0],
                              PaperPlan(PlanKind::kSimple), 0)
                    .IsInvalidArgument());
  }

  ServeOptions zero_queue = base;
  zero_queue.tenants[1].queue_capacity = 0;
  expect_invalid(zero_queue, "zero-capacity tenant queue");

  ServeOptions bad_weight = base;
  bad_weight.tenants[0].weight = -1.0;
  expect_invalid(bad_weight, "negative weight");

  ServeOptions inverted = base;
  inverted.shed_queue_depth = 2;
  inverted.degrade_queue_depth = 8;
  expect_invalid(inverted, "shed depth below degrade depth");

  // Submission-side validation.
  Server server(fx->db(), fx->doc(), base);
  EXPECT_TRUE(server
                  .Submit(7, kServeQueries[0], PaperPlan(PlanKind::kSimple),
                          0)
                  .IsInvalidArgument());  // unknown tenant
  ASSERT_TRUE(server
                  .Submit(0, kServeQueries[0], PaperPlan(PlanKind::kSimple),
                          kSimSecond)
                  .ok());
  EXPECT_TRUE(server
                  .Submit(0, kServeQueries[1], PaperPlan(PlanKind::kSimple),
                          kSimMillisecond)
                  .IsInvalidArgument());  // decreasing arrival
  EXPECT_TRUE(server
                  .Submit(0, kServeQueries[1], PaperPlan(PlanKind::kSimple),
                          2 * kSimSecond, kSimSecond)
                  .IsInvalidArgument());  // deadline in the past
}

TEST(ServeTest, OverloadNeverDegradesAWriteTransaction) {
  // Drive the controller into its degrade state with a reader burst and
  // thread write transactions through the same overloaded window: the
  // readers get re-tiered, the writers must never be — there is no
  // cheaper tier for a write, and a writer mid-retry is still a writer.
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();
  TxnManager mgr(fx->db(), fx->mutable_doc());
  const TagId xbid = fx->db()->tags()->Intern("xbid");
  const NodeID root = fx->doc().root;

  ServeOptions options = TwoTenantOptions(&fx->stats());
  options.workload.txn = &mgr;
  options.workload.max_concurrent = 2;
  options.workload.max_writers = 2;
  options.degrade_queue_depth = 3;
  options.shed_queue_depth = 40;  // degrade, never shed
  options.recover_hold = 2;
  options.tenants[0].queue_capacity = 32;
  options.tenants[1].queue_capacity = 32;
  Server server(fx->db(), fx->doc(), options);

  // One arrival batch well past degrade_queue_depth, writers in the
  // middle of the backlog so they are admitted under a degraded
  // controller.
  std::vector<std::size_t> writer_subs;
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(server
                    .Submit(i % 2, kServeQueries[i % 3],
                            PaperPlan(PlanKind::kXSchedule),
                            static_cast<SimTime>(i) * kSimMicrosecond)
                    .ok());
    if (i % 3 == 1) {
      writer_subs.push_back(server.size());
      ASSERT_TRUE(
          server
              .SubmitWrite(i % 2,
                           {WriteOp{root, kInvalidNodeID, xbid, "w"},
                            WriteOp{root, kInvalidNodeID, xbid, "w"}},
                           static_cast<SimTime>(i) * kSimMicrosecond)
              .ok());
    }
  }
  auto served = server.Run();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // The overload response fired on readers...
  bool reader_degraded = false;
  for (const ServeOutcome& out : served->outcomes) {
    if (!out.is_write) reader_degraded |= out.degraded;
  }
  EXPECT_TRUE(reader_degraded);

  // ...and never on a writer: every write transaction committed at full
  // fidelity, whatever state the controller was in when it was admitted.
  ASSERT_FALSE(writer_subs.empty());
  for (const std::size_t sub : writer_subs) {
    const ServeOutcome& out = served->outcomes[sub];
    ASSERT_TRUE(out.is_write);
    EXPECT_FALSE(out.shed);
    EXPECT_FALSE(out.degraded);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_GT(out.commit_seq, 0u);
  }
  EXPECT_EQ(mgr.commits(), writer_subs.size());
}

TEST(ServeTest, ServingLoopSurvivesOneQuerysCorruption) {
  // Victim navigates the people subtree; its neighbors stay inside
  // regions, so a page only the victim reads exists and can be poisoned.
  const std::string victim = "/site/people/person/email";
  const std::vector<std::string> neighbors = {"/site/regions//item",
                                              "/site/regions//name"};

  FixtureOptions fixture_options;
  auto clean = XMarkFixture::Create(0.005, fixture_options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  XMarkFixture* cfx = clean->get();

  auto trace_of = [&](const std::string& query) {
    std::vector<PageId> trace;
    cfx->db()->disk()->SetTrace(&trace);
    auto run = cfx->Run(query, PaperPlan(PlanKind::kXSchedule));
    cfx->db()->disk()->SetTrace(nullptr);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return trace;
  };
  const std::vector<PageId> victim_trace = trace_of(victim);
  std::unordered_set<PageId> neighbor_pages;
  std::vector<std::uint64_t> neighbor_counts;
  for (const std::string& q : neighbors) {
    for (const PageId page : trace_of(q)) neighbor_pages.insert(page);
    auto run = cfx->Run(q, PaperPlan(PlanKind::kXSchedule));
    ASSERT_TRUE(run.ok());
    neighbor_counts.push_back(run->count);
  }
  PageId bad_page = kInvalidPageId;
  for (const PageId page : victim_trace) {
    if (neighbor_pages.count(page) == 0) {
      bad_page = page;
      break;
    }
  }
  ASSERT_NE(bad_page, kInvalidPageId)
      << "no page exclusive to the victim query";

  // Identical import on a poisoned device: every read of bad_page
  // delivers corrupt data, no matter how often the retry loop re-reads.
  FixtureOptions faulty_options = fixture_options;
  faulty_options.db.faults.seed = 11;
  faulty_options.db.faults.permanent_bad_pages = {bad_page};
  auto faulty = XMarkFixture::Create(0.005, faulty_options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  XMarkFixture* ffx = faulty->get();

  ServeOptions options = TwoTenantOptions(&ffx->stats());
  Server server(ffx->db(), ffx->doc(), options);
  ASSERT_TRUE(server
                  .Submit(0, victim, PaperPlan(PlanKind::kXSchedule), 0)
                  .ok());
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    ASSERT_TRUE(server
                    .Submit(1, neighbors[i],
                            PaperPlan(PlanKind::kXSchedule), 0)
                    .ok());
  }
  auto served = server.Run();
  // The serving loop survives: Run() itself is OK, only the victim's
  // outcome carries the corruption.
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served->outcomes[0].status.ok());
  EXPECT_TRUE(served->outcomes[0].status.IsCorruption())
      << served->outcomes[0].status.ToString();
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const ServeOutcome& out = served->outcomes[1 + i];
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.count, neighbor_counts[i]) << neighbors[i];
  }
  EXPECT_EQ(std::count_if(served->outcomes.begin(), served->outcomes.end(),
                          [](const ServeOutcome& o) {
                            return !o.shed && !o.status.ok();
                          }),
            1);
}

}  // namespace
}  // namespace navpath
