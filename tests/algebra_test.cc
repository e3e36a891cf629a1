// Focused tests for algebra internals: path instances, XSchedule queue
// behaviour, XScan scanning discipline, XAssembly structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "compiler/executor.h"
#include "store/tree_page.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

TEST(PathInstanceTest, KeyDistinguishesStepAndNode) {
  const PathEnd a{1, NodeID{3, 4}, 0, true};
  const PathEnd b{2, NodeID{3, 4}, 0, true};
  const PathEnd c{1, NodeID{3, 5}, 0, true};
  const PathEnd d{1, NodeID{4, 4}, 0, true};
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_NE(a.Key(), c.Key());
  EXPECT_NE(a.Key(), d.Key());
  EXPECT_EQ(a.Key(), (PathEnd{1, NodeID{3, 4}, 99, true}.Key()));
}

TEST(PathInstanceTest, ClassificationPredicates) {
  const PathInstance ctx = PathInstance::Context(NodeID{1, 1}, 0);
  EXPECT_TRUE(ctx.complete());
  EXPECT_TRUE(ctx.full(0));
  EXPECT_FALSE(ctx.full(1));

  const PathInstance seed = PathInstance::Seed(NodeID{2, 2}, 1);
  EXPECT_FALSE(seed.left_complete());
  EXPECT_FALSE(seed.right_complete());
  EXPECT_EQ(seed.left.step, 1);
  EXPECT_EQ(seed.right.step, 1);

  EXPECT_FALSE(ctx.ToString().empty());
  EXPECT_NE(ctx.ToString(), seed.ToString());
}

struct AlgebraFixture {
  Database db;
  DomTree tree;
  ImportedDocument doc;

  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.page_size = 512;
    options.buffer_pages = 64;
    return options;
  }

  explicit AlgebraFixture(std::uint64_t seed, std::size_t nodes = 600)
      : db(Options()), tree(db.tags()) {
    RandomTreeOptions tree_options;
    tree_options.node_count = nodes;
    tree_options.tag_alphabet = 3;
    tree = MakeRandomTree(tree_options, seed, db.tags());
    RandomClusteringPolicy policy(448, seed + 1);
    doc = *db.Import(tree, &policy);
  }

  Result<QueryRunResult> Run(const std::string& path_text,
                             const PlanOptions& plan) {
    auto path = ParsePath(path_text, db.tags());
    NAVPATH_RETURN_NOT_OK(path.status());
    ExecuteOptions exec;
    exec.plan = plan;
    return ExecutePath(&db, doc, *path, exec);
  }
};

TEST(XScheduleTest, PoolsAllIoInOneOperator) {
  AlgebraFixture f(701);
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  auto result = f.Run("//t1/t2", plan);
  ASSERT_TRUE(result.ok());
  // Every physical read was an asynchronous request from XSchedule, plus
  // possibly re-reads of evicted pages at Fix time.
  EXPECT_GT(result->metrics.async_requests, 0u);
  EXPECT_EQ(result->metrics.inter_cluster_hops, 0u);
  // Each visited cluster was entered through a swizzle.
  EXPECT_GE(result->metrics.swizzle_ops, result->metrics.clusters_visited);
}

TEST(XScheduleTest, NonSpeculativeRevisitsClusters) {
  AlgebraFixture f(702);
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  plan.speculative = false;
  auto off = f.Run("//t1/ancestor::t0/t1", plan);
  ASSERT_TRUE(off.ok());
  plan.speculative = true;
  auto on = f.Run("//t1/ancestor::t0/t1", plan);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->count, off->count);
  // Speculation's purpose: no cluster is visited twice (Sec. 5.4.4).
  EXPECT_LT(on->metrics.clusters_visited, off->metrics.clusters_visited);
  EXPECT_GT(on->metrics.speculative_instances, 0u);
}

TEST(XScheduleTest, PartnerPastTheDriveIsCorruption) {
  // XSchedule queues a crossing at the page its border's partner names,
  // an id read from page bytes. Point every down-border's partner just
  // past the drive's last page: the plan must fail with Corruption
  // before Q's page array grows to that id.
  AlgebraFixture f(705);
  const PageId past = f.db.disk()->num_pages();
  std::size_t corrupted = 0;
  for (PageId p = f.doc.first_page; p <= f.doc.last_page; ++p) {
    auto guard = f.db.buffer()->Fix(p);
    ASSERT_TRUE(guard.ok());
    TreePage page(guard->mutable_data(), f.db.options().page_size);
    for (SlotId s = 0; s < page.slot_count(); ++s) {
      if (page.KindOf(s) != RecordKind::kBorderDown) continue;
      page.SetPartner(s, NodeID{past, page.PartnerOf(s).slot});
      ++corrupted;
    }
    guard->MarkDirty();
  }
  ASSERT_GT(corrupted, 0u);
  ASSERT_TRUE(f.db.buffer()->FlushAll().ok());
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  auto result = f.Run("//t1", plan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

TEST(XScanTest, ReadsEveryPageExactlyOnceSequentially) {
  AlgebraFixture f(703);
  PlanOptions plan;
  plan.kind = PlanKind::kXScan;
  auto result = f.Run("//t0", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.disk_reads, f.doc.page_count());
  EXPECT_EQ(result->metrics.disk_seq_reads, f.doc.page_count() - 1);
  EXPECT_EQ(result->metrics.clusters_visited, f.doc.page_count());
  EXPECT_EQ(result->metrics.async_requests, 0u);
}

TEST(XScanTest, SeedCountMatchesBordersTimesSteps) {
  AlgebraFixture f(704);
  PlanOptions plan;
  plan.kind = PlanKind::kXScan;
  auto result = f.Run("//t0/t1", plan);  // two steps
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.speculative_instances,
            2 * 2 * f.doc.border_pairs);  // both borders of a pair, 2 steps
}

TEST(XAssemblyTest, FinalResultsAreDeduplicated) {
  // //t0//t1 over nested t0s: XAssembly's R must deduplicate without the
  // executor's help.
  Database db(AlgebraFixture::Options());
  auto tree = ParseXml("<t0><t0><t1/></t0><t1/></t0>", db.tags());
  ASSERT_TRUE(tree.ok());
  RoundRobinClusteringPolicy policy(448);
  auto doc = db.Import(*tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto path = ParsePath("//t0//t1", db.tags());
  ASSERT_TRUE(path.ok());
  PlanOptions options;
  options.kind = PlanKind::kXScan;
  auto plan = BuildPlan(&db, *doc, *path, {}, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->root()->Open().ok());
  std::vector<std::uint64_t> emitted;
  PathInstance inst;
  for (;;) {
    auto more = plan->root()->Next(&inst);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    emitted.push_back(inst.right.node.Pack());
  }
  ASSERT_TRUE(plan->root()->Close().ok());
  std::sort(emitted.begin(), emitted.end());
  EXPECT_EQ(std::adjacent_find(emitted.begin(), emitted.end()),
            emitted.end());
  EXPECT_EQ(emitted.size(), 2u);
}

TEST(FallbackTest, XScheduleSpeculativeFallbackStillCorrect) {
  AlgebraFixture f(705, 800);
  auto path = ParsePath("//t0//t1", f.db.tags());
  ASSERT_TRUE(path.ok());
  const auto expected = OracleEvaluate(f.tree, *path, f.tree.root());

  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  plan.speculative = true;
  plan.s_budget = 2;
  auto result = f.Run("//t0//t1", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, expected.size());
  EXPECT_GE(result->metrics.fallback_activations, 1u);
}

TEST(FallbackTest, NoFallbackWithoutBudget) {
  AlgebraFixture f(706);
  PlanOptions plan;
  plan.kind = PlanKind::kXScan;
  plan.s_budget = 0;  // unlimited
  auto result = f.Run("//t0//t1", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.fallback_activations, 0u);
}

TEST(PlanBuilderTest, RejectsRelativePathWithoutContexts) {
  AlgebraFixture f(707, 100);
  auto path = ParsePath("t0", f.db.tags());
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(BuildPlan(&f.db, f.doc, *path, {}, {}).ok());
}

TEST(PlanBuilderTest, ZeroStepPathYieldsContext) {
  AlgebraFixture f(708, 100);
  auto path = ParsePath("/", f.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    PlanOptions options;
    options.kind = kind;
    ExecuteOptions exec;
    exec.plan = options;
    exec.collect_nodes = true;
    auto result = ExecutePath(&f.db, f.doc, *path, exec);
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    ASSERT_EQ(result->count, 1u) << PlanKindName(kind);
    EXPECT_EQ(result->nodes[0].order, 0u);
  }
}

}  // namespace
}  // namespace navpath
