// Tests for the observability subsystem: histograms, the simulated-time
// tracer, and EXPLAIN ANALYZE.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/executor.h"
#include "compiler/workload_executor.h"
#include "observe/metrics_registry.h"
#include "observe/trace.h"
#include "tests/test_util.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

// --- Histogram -----------------------------------------------------------

TEST(HistogramTest, ExactBelowLinearLimit) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  // Values below 64 land in exact buckets: quantiles are exact.
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 31u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 63u);
}

TEST(HistogramTest, QuantileErrorIsBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = q * 100000.0;
    const auto reported = static_cast<double>(h.ValueAtQuantile(q));
    EXPECT_GE(reported, exact - 1.0) << q;  // never underestimates
    EXPECT_LE(reported, exact * 1.04) << q;  // ≤ 3.2% bucket error
  }
}

TEST(HistogramTest, QuantileNeverExceedsMax) {
  Histogram h;
  h.Record(1000);
  h.Record(1000000);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 1000000u);
  EXPECT_EQ(h.max(), 1000000u);
}

TEST(HistogramTest, MeanCountAndRecordN) {
  Histogram h;
  h.RecordN(10, 3);
  h.Record(70);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), (3 * 10 + 70) / 4.0);
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a;
  Histogram b;
  a.Record(5);
  b.Record(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
}

TEST(HistogramTest, DeterministicAcrossInsertionOrder) {
  Histogram forward;
  Histogram backward;
  for (std::uint64_t v = 1; v <= 1000; ++v) forward.Record(v * 97);
  for (std::uint64_t v = 1000; v >= 1; --v) backward.Record(v * 97);
  for (const double q : {0.1, 0.5, 0.95, 0.99}) {
    EXPECT_EQ(forward.ValueAtQuantile(q), backward.ValueAtQuantile(q));
  }
}

// --- common/metrics windowing --------------------------------------------

TEST(MetricsWindowTest, DeltaSubtractsCounters) {
  Metrics m;
  m.disk_reads = 10;
  m.buffer_hits = 5;
  m.elevator_depth_max = 8;
  const Metrics start = m.Snapshot();
  m.disk_reads = 25;
  m.buffer_hits = 6;
  m.elevator_depth_max = 12;
  const Metrics d = m.Delta(start);
  EXPECT_EQ(d.disk_reads, 15u);
  EXPECT_EQ(d.buffer_hits, 1u);
  // High-water mark, not a counter: the window reports the current max.
  EXPECT_EQ(d.elevator_depth_max, 12u);
}

// --- Shared fixture for end-to-end observe tests -------------------------

DatabaseOptions SmallDb() {
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 64;
  return options;
}

struct ObserveFixture {
  Database db;
  DomTree tree;
  ImportedDocument doc;
  DocumentStats stats;

  ObserveFixture() : db(SmallDb()), tree(db.tags()) {
    RandomTreeOptions tree_options;
    tree_options.node_count = 500;
    tree_options.tag_alphabet = 3;
    tree = MakeRandomTree(tree_options, 601, db.tags());
    RandomClusteringPolicy policy(448, 3);
    doc = *db.Import(tree, &policy);
    stats = DocumentStats::Build(tree, doc, 512);
  }
};

#if NAVPATH_OBSERVE_ENABLED

// --- Tracer --------------------------------------------------------------

TEST(TracerTest, DisabledByDefault) {
  ObserveFixture f;
  EXPECT_EQ(f.db.tracer(), nullptr);
}

TEST(TracerTest, TracingDoesNotChangeSimulatedCosts) {
  auto run = [](bool traced) {
    ObserveFixture f;
    if (traced) f.db.EnableTracing();
    auto path = ParsePath("//t0//t1", f.db.tags());
    ExecuteOptions exec;
    exec.plan.kind = PlanKind::kXSchedule;
    exec.explain = traced;  // profiling on top of tracing: still free
    auto result = ExecutePath(&f.db, f.doc, *path, exec);
    result.status().AbortIfNotOk();
    return std::make_tuple(result->total_time, result->cpu_time,
                           result->metrics.disk_reads, result->count);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TracerTest, IdenticalRunsProduceByteIdenticalJson) {
  auto trace = []() {
    ObserveFixture f;
    f.db.EnableTracing();
    auto path = ParsePath("//t0//t1", f.db.tags());
    ExecuteOptions exec;
    exec.plan.kind = PlanKind::kXSchedule;
    exec.explain = true;
    ExecutePath(&f.db, f.doc, *path, exec).status().AbortIfNotOk();
    return f.db.tracer()->ToJson();
  };
  const std::string first = trace();
  const std::string second = trace();
  EXPECT_GT(first.size(), 2u);
  EXPECT_EQ(first, second);
}

TEST(TracerTest, TraceContainsDiskAndOperatorSpans) {
  ObserveFixture f;
  f.db.EnableTracing();
  auto path = ParsePath("//t0//t1", f.db.tags());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.explain = true;  // operator spans need profiling
  ExecutePath(&f.db, f.doc, *path, exec).status().AbortIfNotOk();
  const std::string json = f.db.tracer()->ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"operator\""), std::string::npos);
  EXPECT_NE(json.find("XStep_1"), std::string::npos);
}

TEST(TracerTest, CategoryMaskFiltersEvents) {
  ObserveFixture f;
  TracerOptions options;
  options.categories = static_cast<unsigned>(TraceCategory::kDisk);
  f.db.EnableTracing(options);
  auto path = ParsePath("//t0", f.db.tags());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.explain = true;
  ExecutePath(&f.db, f.doc, *path, exec).status().AbortIfNotOk();
  const std::string json = f.db.tracer()->ToJson();
  EXPECT_NE(json.find("\"cat\":\"disk\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"operator\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"scheduler\""), std::string::npos);
}

TEST(TracerTest, MaxEventsCapCountsDrops) {
  SimClock clock;
  TracerOptions options;
  options.max_events = 2;
  Tracer tracer(&clock, options);
  for (int i = 0; i < 5; ++i) {
    tracer.Instant(TraceCategory::kQuery, kTrackScheduler, "tick", i);
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 3u);
}

TEST(TracerTest, ResetMeasurementClearsTrace) {
  ObserveFixture f;
  f.db.EnableTracing();
  auto path = ParsePath("//t0", f.db.tags());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  ExecutePath(&f.db, f.doc, *path, exec).status().AbortIfNotOk();
  EXPECT_GT(f.db.tracer()->event_count(), 0u);
  f.db.ResetMeasurement().AbortIfNotOk();
  EXPECT_EQ(f.db.tracer()->event_count(), 0u);
}

// --- EXPLAIN ANALYZE -----------------------------------------------------

TEST(ExplainTest, EstimatesMatchCostModel) {
  ObserveFixture f;
  auto path = ParsePath("/t0/t1", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.explain = true;
  exec.stats = &f.stats;
  auto result = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->explain, nullptr);
  ASSERT_EQ(result->explain->paths.size(), 1u);
  const PathExplain& explain = result->explain->paths[0];

  std::vector<double> expected_rows;
  const PathEstimate estimate =
      EstimatePathDetailed(f.stats, *path, &expected_rows);
  const PlanCosts costs = EstimatePlanCosts(
      f.stats, *path, f.db.options().disk_model, f.db.costs());
  ASSERT_EQ(explain.steps.size(), path->steps.size());
  ASSERT_EQ(expected_rows.size(), path->steps.size());
  for (std::size_t i = 0; i < explain.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(explain.steps[i].estimated_rows, expected_rows[i]);
  }
  EXPECT_DOUBLE_EQ(explain.estimated_cost, costs.xschedule);
  EXPECT_DOUBLE_EQ(explain.estimated_clusters_touched,
                   estimate.clusters_touched);
  // The last per-step estimate is the path's estimated cardinality.
  EXPECT_DOUBLE_EQ(expected_rows.back(), estimate.result_cardinality);
}

TEST(ExplainTest, ActualRowsReportedForEveryStep) {
  ObserveFixture f;
  // Child-only absolute path with a non-empty result (the seed-601 root
  // is a t2): no duplicates, so the last step's actual row count equals
  // the (distinct) result count — for XScan this requires XAssembly to
  // count speculatively assembled rows on validation, and only then.
  auto path = ParsePath("/t2/t0", f.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    exec.explain = true;
    exec.stats = &f.stats;
    auto result = ExecutePath(&f.db, f.doc, *path, exec);
    ASSERT_TRUE(result.ok());
    ASSERT_NE(result->explain, nullptr) << PlanKindName(kind);
    const PathExplain& explain = result->explain->paths[0];
    ASSERT_EQ(explain.steps.size(), 2u);
    EXPECT_GT(result->count, 0u);
    EXPECT_EQ(explain.steps.back().actual_rows, result->count)
        << PlanKindName(kind);
    EXPECT_EQ(result->count,
              OracleEvaluate(f.tree, *path, f.tree.root()).size());
    EXPECT_FALSE(explain.operators.empty()) << PlanKindName(kind);
    std::uint64_t pulls = 0;
    for (const ExplainOperator& op : explain.operators) pulls += op.pulls;
    EXPECT_GT(pulls, 0u) << PlanKindName(kind);
    EXPECT_FALSE(explain.ToString().empty());
  }
}

TEST(ExplainTest, SummaryExactEstimatesMatchActualsExactly) {
  ObserveFixture f;
  ASSERT_NE(f.db.summary(), nullptr);
  // Child-only absolute path: no duplicate rows, so with the synopsis
  // supplying exact cardinalities every step's estimate must equal its
  // measured row count — not approximately, exactly.
  auto path = ParsePath("/t2/t0", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.explain = true;
  exec.stats = &f.stats;
  auto result = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(result.ok());
  const PathExplain& explain = result->explain->paths[0];
  ASSERT_EQ(explain.steps.size(), path->steps.size());
  for (const ExplainStep& step : explain.steps) {
    EXPECT_EQ(step.estimate_source, "summary-exact") << step.description;
    EXPECT_DOUBLE_EQ(step.estimated_rows,
                     static_cast<double>(step.actual_rows))
        << step.description;
  }
  EXPECT_NE(explain.ToString().find("summary-exact"), std::string::npos);
}

TEST(ExplainTest, EstimateSourceFallsBackToStatsOutsideDomain) {
  ObserveFixture f;
  // Relative path: outside the synopsis' exactness domain, the estimate
  // column comes from the DocumentStats independence model.
  auto path = ParsePath("t0/t1", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.contexts.push_back(LogicalNode{f.doc.root, 0, f.doc.root_order});
  exec.explain = true;
  exec.stats = &f.stats;
  auto result = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(result.ok());
  const PathExplain& explain = result->explain->paths[0];
  for (const ExplainStep& step : explain.steps) {
    EXPECT_EQ(step.estimate_source, "stats-estimate") << step.description;
  }
}

TEST(ExplainTest, SummaryPrunedPathIsMarked) {
  ObserveFixture f;
  // The random alphabet is t0..t2: t3 exists in no document path, so the
  // summary proves the query empty before any operator runs.
  auto path = ParsePath("//t3", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXScan;
  exec.explain = true;
  exec.stats = &f.stats;
  auto result = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
  EXPECT_EQ(result->metrics.clusters_visited, 0u);
  const PathExplain& explain = result->explain->paths[0];
  EXPECT_TRUE(explain.summary_pruned);
  EXPECT_NE(explain.ToString().find("SUMMARY-PRUNED"), std::string::npos);
}

TEST(ExplainTest, ProfilingDoesNotChangeCosts) {
  auto run = [](bool explain) {
    ObserveFixture f;
    auto path = ParsePath("//t1", f.db.tags());
    ExecuteOptions exec;
    exec.plan.kind = PlanKind::kSimple;
    exec.explain = explain;
    auto result = ExecutePath(&f.db, f.doc, *path, exec);
    result.status().AbortIfNotOk();
    return std::make_pair(result->total_time, result->metrics.disk_reads);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ExplainTest, OperatorTimesAreConsistent) {
  ObserveFixture f;
  auto path = ParsePath("/t0/t1/t2", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  exec.explain = true;
  auto result = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(result.ok());
  const PathExplain& explain = result->explain->paths[0];
  SimTime self_sum = 0;
  for (const ExplainOperator& op : explain.operators) {
    EXPECT_LE(op.self_time, op.total_time) << op.name;
    EXPECT_LE(op.self_io_wait, op.total_io_wait) << op.name;
    self_sum += op.self_time;
  }
  // Self times partition the plan's measured time (root total).
  SimTime root_total = 0;
  for (const ExplainOperator& op : explain.operators) {
    root_total = std::max(root_total, op.total_time);
  }
  EXPECT_EQ(self_sum, root_total);
}

#endif  // NAVPATH_OBSERVE_ENABLED

// --- Workload arrivals & cost-derived footprints -------------------------

TEST(WorkloadObserveTest, ArrivalsDelayAdmission) {
  ObserveFixture f;
  WorkloadOptions options;
  options.stats = &f.stats;
  WorkloadExecutor executor(&f.db, f.doc, options);
  const PlanOptions plan = [] {
    PlanOptions p;
    p.kind = PlanKind::kXSchedule;
    return p;
  }();
  constexpr SimTime kLate = 50'000'000'000;  // 50 simulated seconds
  ASSERT_TRUE(executor.Add("//t0", plan).ok());
  ASSERT_TRUE(
      executor.Add(ParseQuery("//t1", f.db.tags()).ValueOrDie(), plan, {}, kLate)
          .ok());
  auto result = executor.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_EQ(result->queries[0].arrival, 0u);
  EXPECT_EQ(result->queries[1].arrival, kLate);
  // The late query is not admitted before it arrives, and its turnaround
  // is measured from arrival, not from time zero.
  EXPECT_GE(result->queries[1].admitted_at, kLate);
  EXPECT_EQ(result->queries[1].turnaround(),
            result->queries[1].finished_at - kLate);
  // The first query finished long before the second arrived (idle gap).
  EXPECT_LT(result->queries[0].finished_at, kLate);
  EXPECT_GE(result->total_time, kLate);
}

TEST(WorkloadObserveTest, ArrivalsMustBeNondecreasing) {
  ObserveFixture f;
  WorkloadExecutor executor(&f.db, f.doc);
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  ASSERT_TRUE(
      executor.Add(ParseQuery("//t0", f.db.tags()).ValueOrDie(), plan, {}, 100)
          .ok());
  const Status status =
      executor.Add(ParseQuery("//t1", f.db.tags()).ValueOrDie(), plan, {}, 50);
  EXPECT_FALSE(status.ok());
}

TEST(WorkloadObserveTest, CostDerivedFootprintPreservesResults) {
  auto run = [](bool derived) {
    ObserveFixture f;
    WorkloadOptions options;
    options.stats = &f.stats;
    options.footprint_from_stats = derived;
    WorkloadExecutor executor(&f.db, f.doc, options);
    PlanOptions plan;
    plan.kind = PlanKind::kXSchedule;
    for (const char* q : {"//t0", "//t1", "//t2", "//t0//t1"}) {
      executor.Add(q, plan).AbortIfNotOk();
    }
    auto result = executor.Run();
    result.status().AbortIfNotOk();
    std::vector<std::uint64_t> counts;
    for (const auto& query : result->queries) counts.push_back(query.count);
    return counts;
  };
  // Tightening footprints can change the schedule, never the answers.
  EXPECT_EQ(run(true), run(false));
}

TEST(WorkloadObserveTest, SummaryEstimatesPreserveResultsAndDeterminism) {
  // Summary-exact admission footprints and DRR charges can reorder the
  // schedule, never change the answers — and with the synopsis on, the
  // schedule itself is deterministic across identical runs.
  auto run = [](bool summary, std::vector<std::size_t>* schedule) {
    ObserveFixture f;
    WorkloadOptions options;
    options.stats = &f.stats;
    options.summary = summary;
    options.policy = WorkloadPolicy::kShortestRemainingCost;
    if (schedule != nullptr) {
      options.on_pull = [schedule](std::size_t job, std::size_t) {
        schedule->push_back(job);
      };
    }
    WorkloadExecutor executor(&f.db, f.doc, options);
    PlanOptions plan;
    plan.kind = PlanKind::kXSchedule;
    for (const char* q : {"//t0", "//t1", "//t2", "//t0//t1"}) {
      executor.Add(q, plan).AbortIfNotOk();
    }
    auto result = executor.Run();
    result.status().AbortIfNotOk();
    std::vector<std::uint64_t> counts;
    for (const auto& query : result->queries) counts.push_back(query.count);
    return counts;
  };
  EXPECT_EQ(run(true, nullptr), run(false, nullptr));
  std::vector<std::size_t> first, second;
  EXPECT_EQ(run(true, &first), run(true, &second));
  EXPECT_EQ(first, second);
}

TEST(WorkloadObserveTest, RepeatedRunsReportIndependentWindows) {
  ObserveFixture f;
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  auto run_once = [&]() {
    WorkloadExecutor executor(&f.db, f.doc);
    executor.Add("//t0", plan).AbortIfNotOk();
    auto result = executor.Run();
    result.status().AbortIfNotOk();
    return std::make_pair(result->total_time, result->metrics.disk_reads);
  };
  // Cold starts reset the clock and buffer but deliberately keep the disk
  // head position (the first access of a fresh measurement pays a real
  // seek), so the very first run seeks from the load position. Warm the
  // head once; after that, identical cold-started runs report identical
  // windows instead of accumulating.
  run_once();
  EXPECT_EQ(run_once(), run_once());
}

#if NAVPATH_OBSERVE_ENABLED

TEST(WorkloadObserveTest, ExplainAggregatesPerQuery) {
  ObserveFixture f;
  WorkloadOptions options;
  options.stats = &f.stats;
  options.explain = true;
  WorkloadExecutor executor(&f.db, f.doc, options);
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  ASSERT_TRUE(executor.Add("/t2/t0", plan).ok());
  ASSERT_TRUE(executor.Add("count(//t0)+count(//t1)", plan).ok());
  auto result = executor.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 2u);
  ASSERT_NE(result->queries[0].explain, nullptr);
  ASSERT_EQ(result->queries[0].explain->paths.size(), 1u);
  ASSERT_NE(result->queries[1].explain, nullptr);
  ASSERT_EQ(result->queries[1].explain->paths.size(), 2u);
  const PathExplain& first = result->queries[0].explain->paths[0];
  EXPECT_EQ(first.steps.size(), 2u);
  EXPECT_GT(first.steps.back().estimated_rows, 0.0);
  EXPECT_EQ(first.steps.back().actual_rows, result->queries[0].count);
  EXPECT_FALSE(result->queries[0].explain->ToString().empty());
}

#endif  // NAVPATH_OBSERVE_ENABLED

}  // namespace
}  // namespace navpath
