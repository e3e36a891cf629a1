// Tests for the benchmark support library (fixtures, formatting) and the
// Metrics report.
#include <gtest/gtest.h>

#include "benchlib/harness.h"
#include "tests/test_util.h"

namespace navpath {
namespace {

TEST(HarnessTest, FixtureBuildsAndRunsPaperQueries) {
  FixtureOptions options;
  options.db.page_size = 1024;
  options.db.buffer_pages = 128;
  auto fixture = XMarkFixture::Create(0.005, options);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  EXPECT_GT((*fixture)->doc().page_count(), 1u);
  auto result = (*fixture)->Run(kQ6Prime, PaperPlan(PlanKind::kXSchedule));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->count, 0u);
}

TEST(HarnessTest, FixtureStatisticsEqualBuildOnTheRegeneratedTree) {
  // The fixture takes its statistics from the import's path summary;
  // DocumentStats::Build tallies the generated tree a second time.
  constexpr double kScale = 0.02;
  auto fixture = XMarkFixture::Create(kScale);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  Database* db = (*fixture)->db();
  ASSERT_NE(db->summary(), nullptr);
  XMarkOptions xmark;
  xmark.scale = kScale;
  const DomTree tree = GenerateXMark(xmark, db->tags());
  const DocumentStats& stats = (*fixture)->stats();
  const DocumentStats built = DocumentStats::Build(
      tree, (*fixture)->doc(), db->options().page_size);
  EXPECT_GT(stats.node_count(), 1000u);
  EXPECT_EQ(StatsDifferences(stats, built,
                             static_cast<TagId>(db->tags()->size())),
            "");
  EXPECT_EQ(stats.tags(), built.tags());
  EXPECT_EQ(stats.page_count(), built.page_count());
  EXPECT_EQ(stats.border_records(), built.border_records());
  EXPECT_EQ(stats.crossing_probability(), built.crossing_probability());
}

TEST(HarnessTest, RejectsUnknownClusteringPolicy) {
  FixtureOptions options;
  options.clustering = "fancy";
  EXPECT_FALSE(XMarkFixture::Create(0.005, options).ok());
}

TEST(HarnessTest, AllClusteringNamesWork) {
  for (const char* name :
       {"subtree", "doc-order", "round-robin", "random"}) {
    FixtureOptions options;
    options.db.page_size = 1024;
    options.clustering = name;
    auto fixture = XMarkFixture::Create(0.002, options);
    ASSERT_TRUE(fixture.ok()) << name;
  }
}

TEST(HarnessTest, PaperPlanMatchesEvaluationSetup) {
  const PlanOptions options = PaperPlan(PlanKind::kXSchedule);
  EXPECT_EQ(options.kind, PlanKind::kXSchedule);
  EXPECT_FALSE(options.speculative);  // Sec. 6.2
  EXPECT_EQ(options.queue_k, 100u);   // Sec. 5.3.4
}

TEST(HarnessTest, RunOptimizedPicksAPlanAndAgrees) {
  FixtureOptions options;
  options.db.page_size = 1024;
  auto fixture = XMarkFixture::Create(0.005, options);
  ASSERT_TRUE(fixture.ok());
  PlanKind chosen = PlanKind::kSimple;
  auto optimized = (*fixture)->RunOptimized(kQ7, &chosen);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  auto reference = (*fixture)->Run(kQ7, PaperPlan(PlanKind::kSimple));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(optimized->count, reference->count);
}

TEST(HarnessTest, Formatting) {
  EXPECT_EQ(FormatSeconds(1.234), "1.23");
  EXPECT_EQ(FormatSeconds(0.0), "0.00");
  EXPECT_EQ(FormatPercent(0.131), "13%");
  EXPECT_EQ(FormatPercent(1.0), "100%");
}

TEST(HarnessTest, ScaleFactorLists) {
  EXPECT_EQ(PaperScaleFactors().size(), 9u);  // Sec. 6.2
  EXPECT_DOUBLE_EQ(PaperScaleFactors().front(), 0.1);
  EXPECT_DOUBLE_EQ(PaperScaleFactors().back(), 2.0);
}

TEST(MetricsTest, ToStringMentionsEveryGroup) {
  Metrics metrics;
  metrics.disk_reads = 7;
  metrics.buffer_hits = 3;
  metrics.intra_cluster_hops = 11;
  metrics.instances_created = 5;
  const std::string report = metrics.ToString();
  EXPECT_NE(report.find("disk:"), std::string::npos);
  EXPECT_NE(report.find("buffer:"), std::string::npos);
  EXPECT_NE(report.find("nav:"), std::string::npos);
  EXPECT_NE(report.find("algebra:"), std::string::npos);
  EXPECT_NE(report.find("reads=7"), std::string::npos);
}

TEST(MetricsTest, ResetClearsEverything) {
  Metrics metrics;
  metrics.disk_reads = 1;
  metrics.swizzle_ops = 2;
  metrics.fallback_activations = 3;
  metrics.Reset();
  EXPECT_EQ(metrics.disk_reads, 0u);
  EXPECT_EQ(metrics.swizzle_ops, 0u);
  EXPECT_EQ(metrics.fallback_activations, 0u);
}

}  // namespace
}  // namespace navpath
