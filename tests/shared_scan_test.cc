// Tests for the shared-scan multi-path executor.
#include <gtest/gtest.h>

#include <memory>

#include "compiler/shared_scan.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
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

TEST(SharedScanTest, MatchesOraclePerPath) {
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 700;
  tree_options.tag_alphabet = 3;
  const DomTree tree = MakeRandomTree(tree_options, 501, db.tags());
  RandomClusteringPolicy policy(448, 7);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto query =
      ParseQuery("count(//t0)+count(//t1/t2)+count(//t2/..)", db.tags());
  ASSERT_TRUE(query.ok());

  auto result = ExecuteQuerySharedScan(&db, *doc, *query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->path_counts.size(), 3u);
  std::uint64_t expected_total = 0;
  for (std::size_t i = 0; i < query->paths.size(); ++i) {
    const auto oracle = OracleEvaluate(tree, query->paths[i], tree.root());
    EXPECT_EQ(result->path_counts[i], oracle.size()) << "path " << i;
    expected_total += oracle.size();
  }
  EXPECT_EQ(result->combined.count, expected_total);
}

TEST(SharedScanTest, SingleScanIoForManyPaths) {
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 900;
  const DomTree tree = MakeRandomTree(tree_options, 502, db.tags());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto query = ParseQuery("count(//t0)+count(//t1)+count(//t2)+count(//t3)",
                          db.tags());
  ASSERT_TRUE(query.ok());
  auto result = ExecuteQuerySharedScan(&db, *doc, *query);
  ASSERT_TRUE(result.ok());
  // Exactly one read per page, all but the first sequential.
  EXPECT_EQ(result->combined.metrics.disk_reads, doc->page_count());
  EXPECT_EQ(result->combined.metrics.disk_seq_reads,
            doc->page_count() - 1);
}

TEST(SharedScanTest, NodeModeReturnsDocumentOrder) {
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 400;
  const DomTree tree = MakeRandomTree(tree_options, 503, db.tags());
  RandomClusteringPolicy policy(448, 11);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto query = ParseQuery("//t1", db.tags());
  ASSERT_TRUE(query.ok());
  auto result = ExecuteQuerySharedScan(&db, *doc, *query);
  ASSERT_TRUE(result.ok());

  const auto oracle = OracleEvaluate(tree, query->paths[0], tree.root());
  ASSERT_EQ(result->combined.nodes.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(result->combined.nodes[i].order, tree.node(oracle[i]).order);
  }
}

TEST(SharedScanTest, AgreesWithSeparateXScanPlans) {
  DatabaseOptions options;
  options.page_size = 1024;
  options.buffer_pages = 128;
  Database db(options);
  XMarkOptions xmark;
  xmark.scale = 0.005;
  const DomTree tree = GenerateXMark(xmark, db.tags());
  SubtreeClusteringPolicy policy(896);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());

  auto query = ParseQuery(
      "count(/site//description)+count(/site//annotation)+"
      "count(/site//email)",
      db.tags());
  ASSERT_TRUE(query.ok());

  ExecuteOptions exec;
  exec.plan.kind = PlanKind::kXScan;
  // Compare the two *navigational* strategies: without this the summary
  // answers the count query without any scan at all.
  exec.plan.use_summary = false;
  auto separate = ExecuteQuery(&db, *doc, *query, exec);
  ASSERT_TRUE(separate.ok());

  auto shared = ExecuteQuerySharedScan(&db, *doc, *query);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->combined.count, separate->count);
  EXPECT_LT(shared->combined.metrics.disk_reads,
            separate->metrics.disk_reads);
}

TEST(SharedScanTest, RejectsRelativePaths) {
  Database db(SmallDb());
  RandomTreeOptions tree_options;
  tree_options.node_count = 50;
  const DomTree tree = MakeRandomTree(tree_options, 504, db.tags());
  SubtreeClusteringPolicy policy(448);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto query = ParseQuery("t0/t1", db.tags());
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(ExecuteQuerySharedScan(&db, *doc, *query).ok());
}

TEST(SharedScanTest, FeedOperatorRefusesReopenWithQueuedInstances) {
  // Regression: Open() used to clear the queue, silently dropping
  // instances a driver had already pushed (and charged the simulated
  // clock for). Re-opening with queued input is now an error; a drained
  // feed re-opens fine.
  FeedOperator feed;
  ASSERT_TRUE(feed.Open().ok());
  feed.Push(PathInstance::Seed(NodeID{}, 0));
  EXPECT_TRUE(feed.Open().IsInvalidArgument());

  PathInstance inst;
  auto have = feed.Next(&inst);
  ASSERT_TRUE(have.ok());
  EXPECT_TRUE(*have);  // the queued instance survived the refused reopen
  have = feed.Next(&inst);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
  EXPECT_TRUE(feed.Open().ok());  // drained: reopen is legal
}

}  // namespace
}  // namespace navpath
