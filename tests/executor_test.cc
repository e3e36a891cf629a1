// Tests for plan execution: result modes, ordering, duplicate
// elimination, measurement discipline.
#include <gtest/gtest.h>

#include <memory>

#include "benchlib/harness.h"
#include "compiler/executor.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

DatabaseOptions SmallDb() {
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 64;
  return options;
}

struct ExecFixture {
  Database db;
  DomTree tree;
  ImportedDocument doc;

  ExecFixture() : db(SmallDb()), tree(db.tags()) {
    RandomTreeOptions tree_options;
    tree_options.node_count = 500;
    tree_options.tag_alphabet = 3;
    tree = MakeRandomTree(tree_options, 601, db.tags());
    RandomClusteringPolicy policy(448, 3);
    doc = *db.Import(tree, &policy);
  }
};

TEST(ExecutorTest, NodeModeIsSortedAndDistinct) {
  ExecFixture f;
  auto path = ParsePath("//t0//t1", f.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    exec.collect_nodes = true;
    auto result = ExecutePath(&f.db, f.doc, *path, exec);
    ASSERT_TRUE(result.ok());
    for (std::size_t i = 1; i < result->nodes.size(); ++i) {
      EXPECT_LT(result->nodes[i - 1].order, result->nodes[i].order)
          << PlanKindName(kind);
    }
    EXPECT_EQ(result->count, result->nodes.size());
  }
}

TEST(ExecutorTest, SimplePlanDuplicatesAreEliminated) {
  // //t0//t1 produces duplicates in the raw Unnest-Map stream whenever
  // t0 contexts nest; the executor's final dedup must remove them.
  Database db(SmallDb());
  auto tree = ParseXml(
      "<t0><t0><t1/></t0><t1/></t0>", db.tags());
  ASSERT_TRUE(tree.ok());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto path = ParsePath("//t0//t1", db.tags());
  ASSERT_TRUE(path.ok());
  const auto expected = OracleEvaluate(*tree, *path, tree->root());
  ASSERT_EQ(expected.size(), 2u);
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kSimple;
  auto result = ExecutePath(&db, *doc, *path, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u);
}

TEST(ExecutorTest, CountModeSumsOperands) {
  ExecFixture f;
  auto query = ParseQuery("count(//t0)+count(//t1)", f.db.tags());
  ASSERT_TRUE(query.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXSchedule;
  auto result = ExecuteQuery(&f.db, f.doc, *query, exec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, OracleCount(f.tree, *query, f.tree.root()));
  EXPECT_TRUE(result->nodes.empty());
}

TEST(ExecutorTest, ExistsEarlyStopLeavesNoPrefetchInFlight) {
  // exists() stops pulling after the first hit, abandoning whatever the
  // elevator still has queued (XSchedule) or speculated (XScan). The
  // executor must drain those before returning, or the next cold start
  // trips ResetTimeline's no-requests-in-flight check. The operand lists
  // cover a lone hit, an empty operand before a hit, and a hit that
  // settles the OR before the second operand runs; each answers 0/1,
  // never a node count.
  ExecFixture f;
  for (const char* text :
       {"exists(//t1)", "exists(//nosuchtag)+exists(//t1)",
        "exists(//t1)+exists(//t2)"}) {
    auto query = ParseQuery(text, f.db.tags());
    ASSERT_TRUE(query.ok()) << text;
    const std::uint64_t expected = OracleCount(f.tree, *query, f.tree.root());
    ASSERT_EQ(expected, 1u) << text;
    for (const PlanKind kind :
         {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
      ExecuteOptions exec;
      exec.plan.kind = kind;
      exec.plan.use_summary = false;  // force navigation, not the synopsis
      auto result = ExecuteQuery(&f.db, f.doc, *query, exec);
      ASSERT_TRUE(result.ok()) << text << " " << PlanKindName(kind);
      EXPECT_EQ(result->count, expected) << text << " " << PlanKindName(kind);
      EXPECT_FALSE(f.db.buffer()->HasPrefetchInFlight())
          << text << " " << PlanKindName(kind);
      // The database must be reusable: the next run's cold start resets
      // the timeline, which asserts that nothing is in flight.
      ExecuteOptions again_options;
      again_options.plan.kind = kind;
      auto again = ExecuteQuery(&f.db, f.doc, *query, again_options);
      ASSERT_TRUE(again.ok()) << text << " " << PlanKindName(kind);
    }
  }
}

TEST(ExecutorTest, ColdStartResetsMeasurement) {
  ExecFixture f;
  auto path = ParsePath("//t1", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXScan;
  auto first = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(first.ok());
  auto second = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(second.ok());
  // Deterministic repeat: identical simulated time and I/O counters.
  EXPECT_EQ(first->total_time, second->total_time);
  EXPECT_EQ(first->metrics.disk_reads, second->metrics.disk_reads);
  EXPECT_GT(first->metrics.buffer_misses, 0u);  // buffer really was cold
}

TEST(ExecutorTest, CpuNeverExceedsTotal) {
  ExecFixture f;
  auto path = ParsePath("//t2/ancestor::t0", f.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    auto result = ExecutePath(&f.db, f.doc, *path, exec);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cpu_time, result->total_time);
    EXPECT_GT(result->cpu_time, 0u);
    EXPECT_GE(result->cpu_fraction(), 0.0);
    EXPECT_LE(result->cpu_fraction(), 1.0);
  }
}

TEST(ExecutorTest, RelativePathRequiresContexts) {
  ExecFixture f;
  auto path = ParsePath("t1/t2", f.db.tags());
  ASSERT_TRUE(path.ok());
  ExecuteOptions exec;
  EXPECT_FALSE(ExecutePath(&f.db, f.doc, *path, exec).ok());
  exec.contexts.push_back(LogicalNode{f.doc.root, 0, f.doc.root_order});
  EXPECT_TRUE(ExecutePath(&f.db, f.doc, *path, exec).ok());
}

TEST(ExecutorTest, EmptyQueryRejected) {
  ExecFixture f;
  PathQuery query;
  EXPECT_FALSE(ExecuteQuery(&f.db, f.doc, query, {}).ok());
}

TEST(ExecutorTest, MetricsExposeTheMechanism) {
  ExecFixture f;
  auto path = ParsePath("//t1", f.db.tags());
  ASSERT_TRUE(path.ok());

  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kSimple;
  auto simple = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(simple.ok());
  exec.plan.kind = PlanKind::kXSchedule;
  auto xsched = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(xsched.ok());
  exec.plan.kind = PlanKind::kXScan;
  auto xscan = ExecutePath(&f.db, f.doc, *path, exec);
  ASSERT_TRUE(xscan.ok());

  // Simple traverses inter-cluster edges itself; the pooled plans do not.
  EXPECT_GT(simple->metrics.inter_cluster_hops, 0u);
  EXPECT_EQ(xsched->metrics.inter_cluster_hops, 0u);
  // XSchedule uses asynchronous requests; Simple never does.
  EXPECT_GT(xsched->metrics.async_requests, 0u);
  EXPECT_EQ(simple->metrics.async_requests, 0u);
  // XScan reads every page exactly once, almost fully sequential.
  EXPECT_EQ(xscan->metrics.disk_reads, f.doc.page_count());
  EXPECT_GT(xscan->metrics.speculative_instances, 0u);
}

TEST(ExecutorTest, SimulatedCostsMatchRecordedDigests) {
  // Pins the single-query path's simulated costs: XAssembly's R and S,
  // fallback mode, and ExecuteQuery's dedup sets (the final one, the one
  // per predicate segment and the one per predicate step). Each row runs
  // the paper's Q6', Q7 and Q15 and one predicate query cold, in order,
  // on a fresh store at least twice the buffer pool, and digests every
  // result count and Metrics::ToString(). The constants were recorded by
  // building this test against the code before the host-side membership
  // sets and page table became flat; host-side data structures must not
  // move them.
  FixtureOptions options;
  options.db.buffer_pages = 100;
  const char* const queries[] = {
      kQ6Prime, kQ7, kQ15, "/site/regions//item[description//keyword]/name"};
  const auto plan = [](PlanKind kind, bool speculative, std::size_t s_budget,
                       bool use_summary) {
    PlanOptions p = PaperPlan(kind);
    p.speculative = speculative;
    p.s_budget = s_budget;
    p.use_summary = use_summary;
    return p;
  };
  struct Row {
    const char* name;
    PlanOptions plan;
    bool falls_back;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"simple", plan(PlanKind::kSimple, false, 0, false), false,
       0x1833695f4f1a7acbull},
      {"xschedule", plan(PlanKind::kXSchedule, false, 0, false), false,
       0x807480ec75a583aaull},
      {"xschedule speculative", plan(PlanKind::kXSchedule, true, 0, false),
       false, 0x209b4eca858500bfull},
      {"xscan", plan(PlanKind::kXScan, false, 0, false), false,
       0x1560530d2aeecd20ull},
      {"xscan s_budget=64", plan(PlanKind::kXScan, false, 64, false), true,
       0x459c907c1805b259ull},
      {"xscan summary", plan(PlanKind::kXScan, false, 0, true), false,
       0xe2fc9701384a3068ull},
  };
  for (const Row& row : rows) {
    auto fixture = XMarkFixture::Create(0.02, options);
    ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
    ASSERT_GE((*fixture)->doc().pages, 2 * options.db.buffer_pages);
    Fnv1a digest;
    std::uint64_t fallbacks = 0;
    for (const char* query : queries) {
      auto result = (*fixture)->Run(query, row.plan);
      ASSERT_TRUE(result.ok()) << row.name << " " << query << ": "
                               << result.status().ToString();
      digest.Add(result->count);
      digest.AddText(result->metrics.ToString());
      fallbacks += result->metrics.fallback_activations;
    }
    EXPECT_EQ(fallbacks > 0, row.falls_back) << row.name;
    EXPECT_EQ(digest.h, row.digest)
        << row.name << ": 0x" << std::hex << digest.h << "ull";
  }
}

}  // namespace
}  // namespace navpath
