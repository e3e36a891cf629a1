// Tests for the multi-query workload executor: interleaved execution must
// be invisible in the results (byte-identical to back-to-back runs for
// every plan kind and policy), cross-query request merging must never
// serve stale data, admission control must respect the buffer budget, and
// the whole machinery must survive injected transient faults.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "benchlib/harness.h"
#include "compiler/workload_executor.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"
#include "storage/page.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

const char* const kQueries[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site//keyword",
};

std::vector<std::uint64_t> OrdersOf(const std::vector<LogicalNode>& nodes) {
  std::vector<std::uint64_t> orders;
  orders.reserve(nodes.size());
  for (const LogicalNode& node : nodes) orders.push_back(node.order);
  return orders;
}

/// Runs `queries` through a WorkloadExecutor and returns the result.
Result<WorkloadResult> RunWorkload(XMarkFixture* fixture,
                                   const std::vector<std::string>& queries,
                                   PlanKind kind, WorkloadPolicy policy,
                                   std::size_t max_concurrent) {
  WorkloadOptions options;
  options.policy = policy;
  options.max_concurrent = max_concurrent;
  options.collect_nodes = true;
  options.stats = &fixture->stats();
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const std::string& q : queries) {
    NAVPATH_RETURN_NOT_OK(executor.Add(q, PaperPlan(kind)));
  }
  return executor.Run();
}

TEST(WorkloadExecutorTest, InterleavedMatchesSequentialForAllPlanKinds) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXScan, PlanKind::kXSchedule}) {
    // Ground truth: each query standalone through the ordinary executor.
    std::vector<QueryRunResult> solo;
    for (const std::string& q : queries) {
      auto result = (*fixture)->Run(q, PaperPlan(kind));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_GT(result->count, 0u);
      solo.push_back(*std::move(result));
    }

    auto interleaved = RunWorkload(fixture->get(), queries, kind,
                                   WorkloadPolicy::kRoundRobin, 0);
    ASSERT_TRUE(interleaved.ok())
        << PlanKindName(kind) << ": " << interleaved.status().ToString();
    ASSERT_EQ(interleaved->queries.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(interleaved->queries[i].count, solo[i].count)
          << PlanKindName(kind) << " " << queries[i];
      EXPECT_EQ(OrdersOf(interleaved->queries[i].nodes),
                OrdersOf(solo[i].nodes))
          << PlanKindName(kind) << " " << queries[i];
    }
  }
}

TEST(WorkloadExecutorTest, AllPoliciesProduceIdenticalResults) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));

  auto baseline = RunWorkload(fixture->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kRoundRobin, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const WorkloadPolicy policy :
       {WorkloadPolicy::kRoundRobin, WorkloadPolicy::kShortestRemainingCost,
        WorkloadPolicy::kHybrid}) {
    auto run = RunWorkload(fixture->get(), queries, PlanKind::kXSchedule,
                           policy, 0);
    ASSERT_TRUE(run.ok())
        << WorkloadPolicyName(policy) << ": " << run.status().ToString();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(run->queries[i].count, baseline->queries[i].count)
          << WorkloadPolicyName(policy) << " " << queries[i];
      EXPECT_EQ(OrdersOf(run->queries[i].nodes),
                OrdersOf(baseline->queries[i].nodes))
          << WorkloadPolicyName(policy) << " " << queries[i];
    }
  }
}

/// Runs `queries` under `policy` and records the pull schedule (job index
/// per scheduling decision) via the on_pull hook.
Result<std::vector<std::size_t>> PullScheduleOf(
    XMarkFixture* fixture, const std::vector<std::string>& queries,
    WorkloadPolicy policy,
    std::vector<std::size_t>* active_sizes = nullptr) {
  std::vector<std::size_t> schedule;
  WorkloadOptions options;
  options.policy = policy;
  options.collect_nodes = false;
  options.stats = &fixture->stats();
  options.on_pull = [&](std::size_t job_index, std::size_t active_size) {
    schedule.push_back(job_index);
    if (active_sizes != nullptr) active_sizes->push_back(active_size);
  };
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const std::string& q : queries) {
    NAVPATH_RETURN_NOT_OK(executor.Add(q, PaperPlan(PlanKind::kXSchedule)));
  }
  NAVPATH_RETURN_NOT_OK(executor.Run().status());
  return schedule;
}

TEST(WorkloadExecutorTest, PullScheduleIsDeterministicForEveryPolicy) {
  // Scheduling must depend only on the workload, never on host state:
  // two identically-seeded fixtures have to produce pull-for-pull
  // identical schedules under every policy, hybrid's live classification
  // signals included.
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  for (const WorkloadPolicy policy :
       {WorkloadPolicy::kRoundRobin, WorkloadPolicy::kShortestRemainingCost,
        WorkloadPolicy::kHybrid}) {
    auto first_fixture = XMarkFixture::Create(0.02);
    ASSERT_TRUE(first_fixture.ok()) << first_fixture.status().ToString();
    auto second_fixture = XMarkFixture::Create(0.02);
    ASSERT_TRUE(second_fixture.ok()) << second_fixture.status().ToString();

    auto first = PullScheduleOf(first_fixture->get(), queries, policy);
    ASSERT_TRUE(first.ok())
        << WorkloadPolicyName(policy) << ": " << first.status().ToString();
    auto second = PullScheduleOf(second_fixture->get(), queries, policy);
    ASSERT_TRUE(second.ok())
        << WorkloadPolicyName(policy) << ": " << second.status().ToString();

    ASSERT_FALSE(first->empty()) << WorkloadPolicyName(policy);
    EXPECT_EQ(*first, *second) << WorkloadPolicyName(policy);
  }
}

// --- The simulated schedule, pinned across commits ----------------------
//
// PullScheduleIsDeterministicForEveryPolicy compares two runs of one
// binary, so a host-side change that reorders the simulated schedule
// passes it. The recorded digests below catch that: a change meant to
// save host time only must reproduce them exactly, and a change that
// moves the simulated schedule on purpose re-records them and says why.

struct ScheduleDigests {
  std::uint64_t pulls = 0;      // on_pull calls
  std::uint64_t on_pull = 0;    // (job index, active size) per decision
  std::uint64_t finished = 0;   // per-query finished_at, in Add() order
  std::uint64_t metrics = 0;    // Metrics::ToString() of the run window
  bool operator==(const ScheduleDigests&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ScheduleDigests& d) {
  return os << "{" << d.pulls << "u, 0x" << std::hex << d.on_pull
            << "ull, 0x" << d.finished << "ull, 0x" << d.metrics << "ull"
            << std::dec << "}";
}

constexpr const char* kThroughputMix[] = {
    "/site/regions//item",
    "/site/regions//name",
    "/site/people/person/email",
    "/site//description",
    "/site/open_auctions/open_auction/bidder",
    "/site/closed_auctions/closed_auction/annotation/description",
    "/site//keyword",
    "/site/people/person/address/city",
};

/// Runs the workload_throughput mix under `policy`, through Run() or
/// through the stepping interface with Run()'s FIFO admission.
Result<ScheduleDigests> DigestSchedule(XMarkFixture* fixture,
                                       WorkloadPolicy policy,
                                       bool stepping) {
  ScheduleDigests d;
  Fnv1a pulls;
  WorkloadOptions options;
  options.policy = policy;
  options.stats = &fixture->stats();
  options.on_pull = [&](std::size_t job_index, std::size_t active_size) {
    ++d.pulls;
    pulls.Add(job_index);
    pulls.Add(active_size);
  };
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const char* q : kThroughputMix) {
    NAVPATH_RETURN_NOT_OK(executor.Add(q, PaperPlan(PlanKind::kXSchedule)));
  }
  WorkloadResult result;
  if (!stepping) {
    NAVPATH_ASSIGN_OR_RETURN(result, executor.Run());
  } else {
    NAVPATH_RETURN_NOT_OK(executor.BeginStepping(executor.size()));
    std::size_t next = 0;
    const auto admit = [&]() -> Status {
      while (next < executor.size() && executor.CanAdmit(next)) {
        NAVPATH_RETURN_NOT_OK(executor.ActivateJob(next++));
      }
      return Status::OK();
    };
    NAVPATH_RETURN_NOT_OK(admit());
    while (executor.active_count() > 0) {
      NAVPATH_ASSIGN_OR_RETURN(const std::size_t done, executor.StepOnce());
      if (done != WorkloadExecutor::kNoJob) NAVPATH_RETURN_NOT_OK(admit());
    }
    NAVPATH_ASSIGN_OR_RETURN(result, executor.EndStepping());
  }
  d.on_pull = pulls.h;
  Fnv1a finished;
  for (const WorkloadQueryResult& q : result.queries) {
    NAVPATH_RETURN_NOT_OK(q.status);
    finished.Add(q.finished_at);
  }
  d.finished = finished.h;
  Fnv1a metrics;
  metrics.AddText(result.metrics.ToString());
  d.metrics = metrics.h;
  return d;
}

TEST(WorkloadExecutorTest, SimulatedScheduleMatchesRecordedDigests) {
  // The store is at least twice the pool, so queries evict each other's
  // clusters and XSchedule's cooperative paths (sibling installs, yields)
  // run.
  // Each run gets a fresh store: the drive head survives runs.
  FixtureOptions options;
  options.db.buffer_pages = 100;
  struct Expected {
    WorkloadPolicy policy;
    ScheduleDigests digests;
  };
  // Run() and the stepping interface must both reproduce the same row.
  const Expected expected[] = {
      {WorkloadPolicy::kRoundRobin,
       {4951u, 0x914befe9aafc1687ull, 0x13eb9f5c93462f1full,
        0x88dd60b3b96f000cull}},
      {WorkloadPolicy::kShortestRemainingCost,
       {4481u, 0x2cc96c73c5feed25ull, 0x1b0a6af90d285698ull,
        0x81a2db8607f10ce4ull}},
      {WorkloadPolicy::kHybrid,
       {4524u, 0x33f2e12864c276c0ull, 0x63fb3f6fbc0a6b0full,
        0xd27becf46630a02dull}},
  };
  for (const Expected& e : expected) {
    for (const bool stepping : {false, true}) {
      auto fixture = XMarkFixture::Create(0.02, options);
      ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
      ASSERT_GE((*fixture)->doc().pages, 2 * options.db.buffer_pages);
      auto digests = DigestSchedule(fixture->get(), e.policy, stepping);
      ASSERT_TRUE(digests.ok()) << WorkloadPolicyName(e.policy) << ": "
                                << digests.status().ToString();
      EXPECT_EQ(*digests, e.digests)
          << WorkloadPolicyName(e.policy)
          << (stepping ? " (stepping)" : " (Run)");
    }
  }
}

TEST(WorkloadExecutorTest, RoundRobinNeverStarvesAJob) {
  // Regression for the `decisions % active.size()` cursor: when a job
  // completed, the modulus re-aligned and could pull some survivor twice
  // while another waited. Rotation over stable job ids guarantees that
  // between two pulls of any job, no other job is pulled twice, and the
  // gap never exceeds one full rotation of the admitted set.
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries = {
      "/site/regions//item",        "/site/people/person/email",
      "/site//keyword",             "/site/regions//name",
      "/site/people/person/name"};

  std::vector<std::size_t> active_sizes;
  auto schedule = PullScheduleOf(fixture->get(), queries,
                                 WorkloadPolicy::kRoundRobin, &active_sizes);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_FALSE(schedule->empty());

  std::vector<std::size_t> last_pull(queries.size(), 0);
  std::vector<bool> pulled(queries.size(), false);
  for (std::size_t t = 0; t < schedule->size(); ++t) {
    const std::size_t job = (*schedule)[t];
    ASSERT_LT(job, queries.size());
    if (pulled[job]) {
      // Every pull in between must belong to a distinct other job.
      std::vector<int> seen(queries.size(), 0);
      for (std::size_t u = last_pull[job] + 1; u < t; ++u) {
        ++seen[(*schedule)[u]];
        EXPECT_LE(seen[(*schedule)[u]], 1)
            << "job " << (*schedule)[u] << " pulled twice while job " << job
            << " waited (decisions " << last_pull[job] << ".." << t << ")";
      }
      EXPECT_LE(t - last_pull[job], queries.size())
          << "job " << job << " waited longer than one full rotation";
    }
    pulled[job] = true;
    last_pull[job] = t;
  }
}

TEST(WorkloadExecutorTest, CrossQueryMergingIsCountedAndNeverStale) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  // Two queries over the same document region: their XSchedule prefetch
  // sets overlap heavily, so duplicate reads must be merged at the disk.
  const std::vector<std::string> overlapping = {"/site/regions//item",
                                                "/site/regions//name"};

  auto sequential = RunWorkload(fixture->get(), overlapping,
                                PlanKind::kXSchedule,
                                WorkloadPolicy::kRoundRobin, 1);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  EXPECT_EQ(sequential->metrics.requests_merged, 0u)
      << "back-to-back queries never overlap in flight";

  auto interleaved = RunWorkload(fixture->get(), overlapping,
                                 PlanKind::kXSchedule,
                                 WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(interleaved.ok()) << interleaved.status().ToString();
  EXPECT_GT(interleaved->metrics.requests_merged, 0u);
  // A merged completion serves every interested query with the same
  // installed page; results must stay exact.
  for (std::size_t i = 0; i < overlapping.size(); ++i) {
    EXPECT_EQ(interleaved->queries[i].count, sequential->queries[i].count);
    EXPECT_EQ(OrdersOf(interleaved->queries[i].nodes),
              OrdersOf(sequential->queries[i].nodes));
  }
}

TEST(WorkloadExecutorTest, AdmissionControlRespectsBufferBudget) {
  const std::vector<std::string> queries = {"/site/regions//item",
                                            "/site/regions//name"};
  // XSchedule's admission footprint is queue_k + 2 = 102 pages. A 64-page
  // buffer cannot hold two such queries, so the second is admitted only
  // after the first finishes.
  FixtureOptions tight;
  tight.db.buffer_pages = 64;
  auto small = XMarkFixture::Create(0.005, tight);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  auto serialized = RunWorkload(small->get(), queries, PlanKind::kXSchedule,
                                WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  EXPECT_EQ(serialized->queries[0].admitted_at, 0u);
  EXPECT_GE(serialized->queries[1].admitted_at,
            serialized->queries[0].finished_at);

  // With the default 1000-page buffer both fit the budget immediately.
  auto roomy = XMarkFixture::Create(0.005);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  auto concurrent = RunWorkload(roomy->get(), queries, PlanKind::kXSchedule,
                                WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  EXPECT_EQ(concurrent->queries[0].admitted_at, 0u);
  EXPECT_EQ(concurrent->queries[1].admitted_at, 0u);

  // Admission changes scheduling, never answers.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(serialized->queries[i].count, concurrent->queries[i].count);
  }
}

TEST(WorkloadExecutorTest, SurvivesTransientFaults) {
  FaultInjectorOptions faults;
  faults.seed = 1234;
  faults.transient_read_error_rate = 0.10;
  faults.corruption_rate = 0.02;
  faults.latency_spike_rate = 0.02;

  FixtureOptions clean_options;
  clean_options.db.page_size = 1024;
  clean_options.db.buffer_pages = 256;
  auto clean = XMarkFixture::Create(0.005, clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  FixtureOptions faulty_options = clean_options;
  faulty_options.db.faults = faults;
  // Injection rates far above any real device; give the retry loop room.
  faulty_options.db.retry.max_attempts = 8;
  auto faulty = XMarkFixture::Create(0.005, faulty_options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  auto expected = RunWorkload(clean->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->metrics.faults_injected, 0u);

  auto survived = RunWorkload(faulty->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_GT(survived->metrics.faults_injected, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(survived->queries[i].count, expected->queries[i].count)
        << queries[i];
    EXPECT_EQ(OrdersOf(survived->queries[i].nodes),
              OrdersOf(expected->queries[i].nodes))
        << queries[i];
  }
  // Recovery costs simulated time; the faulty run cannot be faster.
  EXPECT_GE(survived->total_time, expected->total_time);
}

TEST(WorkloadExecutorTest, OneQuerysCorruptionDoesNotFailItsNeighbors) {
  // Per-query fault isolation: poison a page only one query reads and run
  // the three-query workload. The victim's own result carries the
  // Corruption status; its neighbors finish with exact answers and Run()
  // itself succeeds.
  const std::string victim = "/site/people/person/email";
  const std::vector<std::string> neighbors = {"/site/regions//item",
                                              "/site/regions//name"};

  auto clean = XMarkFixture::Create(0.005);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto trace_of = [&](const std::string& query) {
    std::vector<PageId> trace;
    (*clean)->db()->disk()->SetTrace(&trace);
    auto run = (*clean)->Run(query, PaperPlan(PlanKind::kXSchedule));
    (*clean)->db()->disk()->SetTrace(nullptr);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return trace;
  };
  std::unordered_set<PageId> neighbor_pages;
  for (const std::string& q : neighbors) {
    for (const PageId page : trace_of(q)) neighbor_pages.insert(page);
  }
  PageId bad_page = kInvalidPageId;
  for (const PageId page : trace_of(victim)) {
    if (neighbor_pages.count(page) == 0) {
      bad_page = page;
      break;
    }
  }
  ASSERT_NE(bad_page, kInvalidPageId);

  std::vector<std::string> queries = {victim};
  queries.insert(queries.end(), neighbors.begin(), neighbors.end());
  auto expected = RunWorkload(clean->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kHybrid, 0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  FixtureOptions faulty_options;
  faulty_options.db.faults.seed = 7;
  faulty_options.db.faults.permanent_bad_pages = {bad_page};
  auto faulty = XMarkFixture::Create(0.005, faulty_options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  auto survived = RunWorkload(faulty->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kHybrid, 0);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_TRUE(survived->queries[0].status.IsCorruption())
      << survived->queries[0].status.ToString();
  for (std::size_t i = 1; i < queries.size(); ++i) {
    EXPECT_TRUE(survived->queries[i].status.ok())
        << survived->queries[i].status.ToString();
    EXPECT_EQ(survived->queries[i].count, expected->queries[i].count)
        << queries[i];
    EXPECT_EQ(OrdersOf(survived->queries[i].nodes),
              OrdersOf(expected->queries[i].nodes))
        << queries[i];
  }
}

TEST(WorkloadExecutorTest, RejectsMalformedOptionsAndDeadlines) {
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();

  // Options are validated at the top of Run(), not asserted mid-flight.
  WorkloadOptions no_writers;
  no_writers.max_writers = 0;
  WorkloadExecutor invalid((*fixture)->db(), (*fixture)->doc(), no_writers);
  ASSERT_TRUE(invalid.Add(kQueries[0], PaperPlan(PlanKind::kSimple)).ok());
  EXPECT_TRUE(invalid.Run().status().IsInvalidArgument());

  // A deadline at or before the arrival can never be met and is rejected
  // at Add() time.
  WorkloadExecutor executor((*fixture)->db(), (*fixture)->doc());
  EXPECT_TRUE(executor
                  .Add(kQueries[0], PaperPlan(PlanKind::kSimple),
                       /*arrival=*/kSimSecond, /*deadline=*/kSimSecond)
                  .IsInvalidArgument());
  EXPECT_TRUE(executor
                  .Add(kQueries[0], PaperPlan(PlanKind::kSimple),
                       /*arrival=*/2 * kSimSecond,
                       /*deadline=*/kSimSecond)
                  .IsInvalidArgument());
  ASSERT_TRUE(executor
                  .Add(kQueries[0], PaperPlan(PlanKind::kSimple),
                       /*arrival=*/kSimSecond,
                       /*deadline=*/2 * kSimSecond)
                  .ok());
  auto run = executor.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->queries[0].status.ok());
}

TEST(WorkloadExecutorTest, DeadlineUrgentJobJoinsTheHybridWindow) {
  // kHybrid keeps only its cheapest jobs in the scheduling window until
  // half the workload has finished. A job whose deadline slack no longer
  // covers its remaining cost joins the window anyway: the one effect a
  // deadline has on scheduling.
  struct Trace {
    std::size_t first_pull_of_last = 0;  // decision index
    SimTime finished[3] = {};
  };
  const auto run = [](SimTime deadline) -> Result<Trace> {
    NAVPATH_ASSIGN_OR_RETURN(auto fixture, XMarkFixture::Create(0.02));
    WorkloadOptions options;
    options.policy = WorkloadPolicy::kHybrid;
    options.stats = &fixture->stats();
    Trace trace;
    std::size_t decision = 0;
    bool seen = false;
    options.on_pull = [&](std::size_t job, std::size_t) {
      if (job == 2 && !seen) {
        seen = true;
        trace.first_pull_of_last = decision;
      }
      ++decision;
    };
    WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
    const PlanOptions plan = PaperPlan(PlanKind::kXSchedule);
    NAVPATH_RETURN_NOT_OK(executor.Add("/site/people/person/email", plan));
    NAVPATH_RETURN_NOT_OK(executor.Add("/site/regions//item", plan));
    NAVPATH_RETURN_NOT_OK(
        executor.Add("/site//keyword", plan, /*arrival=*/0, deadline));
    NAVPATH_ASSIGN_OR_RETURN(const WorkloadResult result, executor.Run());
    for (std::size_t i = 0; i < 3; ++i) {
      NAVPATH_RETURN_NOT_OK(result.queries[i].status);
      trace.finished[i] = result.queries[i].finished_at;
    }
    return trace;
  };

  auto urgent = run(/*deadline=*/1);
  ASSERT_TRUE(urgent.ok()) << urgent.status().ToString();
  auto relaxed = run(/*deadline=*/0);
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  EXPECT_EQ(urgent->first_pull_of_last, 1u);
  EXPECT_LT(urgent->finished[2], urgent->finished[1]);
  EXPECT_EQ(relaxed->first_pull_of_last, 1130u);
  EXPECT_GT(relaxed->finished[2], relaxed->finished[1]);
}

TEST(WorkloadExecutorTest, RejectsInvalidWorkloads) {
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  WorkloadExecutor executor((*fixture)->db(), (*fixture)->doc());
  EXPECT_TRUE(executor.Run().status().IsInvalidArgument());  // empty
  EXPECT_TRUE(executor
                  .Add("/site/regions/europe/item[quantity]",
                       PaperPlan(PlanKind::kXSchedule))
                  .IsInvalidArgument());  // predicates unsupported
}

}  // namespace
}  // namespace navpath
