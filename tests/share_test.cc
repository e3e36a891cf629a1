// Tests for the cross-query prefix-sharing subsystem: trie normalization
// and group extraction, the sharing cost estimator, and end-to-end
// workload execution with shared producer streams (exact results,
// deterministic scheduling, byte-identical declines, spill-to-recompute).
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "compiler/workload_executor.h"
#include "share/prefix_trie.h"
#include "tests/test_util.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

std::vector<std::uint64_t> OrdersOf(const std::vector<LogicalNode>& nodes) {
  std::vector<std::uint64_t> orders;
  orders.reserve(nodes.size());
  for (const LogicalNode& node : nodes) orders.push_back(node.order);
  return orders;
}

LocationPath PathOf(const std::string& expr, TagRegistry* tags) {
  auto query = ParseQuery(expr, tags);
  query.status().AbortIfNotOk();
  NAVPATH_CHECK(query->paths.size() == 1);
  return query->paths[0];
}

TEST(PrefixTrieTest, QueriesDifferingInFinalStepShareTheirPrefix) {
  Database db;
  PrefixTrie trie;
  trie.AddPath(0, PathOf("/site/regions//item", db.tags()));
  trie.AddPath(1, PathOf("/site/regions//name", db.tags()));
  trie.AddPath(2, PathOf("/site/people/person", db.tags()));
  EXPECT_EQ(trie.paths_indexed(), 3u);

  const std::vector<SharedPrefix> groups = trie.ExtractGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1}));
  // The shared prefix is exactly the steps before the differing one.
  EXPECT_EQ(groups[0].depth(), 2u);
  EXPECT_TRUE(groups[0].prefix.absolute);
  EXPECT_EQ(groups[0].prefix.ToString(),
            PathOf("/site/regions", db.tags()).ToString());
}

TEST(PrefixTrieTest, PredicatePositionBoundsTheSharedPrefix) {
  // A predicated step ends a query's shareable run: two queries that
  // differ only in where the predicate sits share exactly the
  // predicate-free common prefix.
  Database db;
  PrefixTrie trie;
  trie.AddPath(0, PathOf("/site/regions/europe[item]/item", db.tags()));
  trie.AddPath(1, PathOf("/site/regions/europe/item[quantity]", db.tags()));

  const std::vector<SharedPrefix> groups = trie.ExtractGroups();
  ASSERT_EQ(groups.size(), 1u);
  // Query 0 stops before europe[item] (depth 2); query 1 before
  // item[quantity] (depth 3). The deepest common candidate is depth 2.
  EXPECT_EQ(groups[0].depth(), 2u);
  EXPECT_EQ(groups[0].prefix.ToString(),
            PathOf("/site/regions", db.tags()).ToString());
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1}));
}

TEST(PrefixTrieTest, RelativePathsAndShallowOverlapDoNotGroup) {
  Database db;
  PrefixTrie trie;
  trie.AddPath(0, PathOf("regions//item", db.tags()));  // relative: skipped
  trie.AddPath(1, PathOf("/site/regions//item", db.tags()));
  trie.AddPath(2, PathOf("/site/people/person", db.tags()));
  EXPECT_EQ(trie.paths_indexed(), 2u);
  // Queries 1 and 2 share only /site (depth 1 < min_depth 2).
  EXPECT_TRUE(trie.ExtractGroups().empty());
  // With min_depth 1 the shallow overlap does group.
  const std::vector<SharedPrefix> shallow = trie.ExtractGroups(1);
  ASSERT_EQ(shallow.size(), 1u);
  EXPECT_EQ(shallow[0].members, (std::vector<std::size_t>{1, 2}));
}

TEST(PrefixTrieTest, GreedyDeepestFirstExtractionIsDisjointAndStable) {
  Database db;
  auto build = [&db]() {
    PrefixTrie trie;
    // Four queries share /site/regions; two of them share the deeper
    // /site/regions/europe. Deepest-first: the europe pair groups at
    // depth 3, the remaining two at depth 2 — every query in exactly
    // one group.
    trie.AddPath(0, PathOf("/site/regions//item", db.tags()));
    trie.AddPath(1, PathOf("/site/regions/europe/item/name", db.tags()));
    trie.AddPath(2, PathOf("/site/regions//name", db.tags()));
    trie.AddPath(3, PathOf("/site/regions/europe/item/payment", db.tags()));
    return trie.ExtractGroups();
  };
  const std::vector<SharedPrefix> groups = build();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].depth(), 4u);  // /site/regions/europe/item
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(groups[1].depth(), 2u);  // /site/regions
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{0, 2}));

  // Extraction is deterministic: rebuilding yields the same groups.
  const std::vector<SharedPrefix> again = build();
  ASSERT_EQ(again.size(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(again[i].members, groups[i].members);
    EXPECT_EQ(again[i].prefix.ToString(), groups[i].prefix.ToString());
  }
}

TEST(ShareEstimatorTest, AdoptsOverlappingGroupDeclinesDisjointOne) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  Database* db = (*fixture)->db();
  const DocumentStats& stats = (*fixture)->stats();
  const DiskModel& disk = db->options().disk_model;
  const CpuCostModel& cpu = db->costs();

  // Eight queries fanning out of /site/regions: one producer replaces
  // eight overlapping scans — clearly beneficial.
  const LocationPath prefix = PathOf("/site/regions", db->tags());
  std::vector<LocationPath> members;
  for (const char* expr :
       {"/site/regions//item", "/site/regions//name",
        "/site/regions//location", "/site/regions//quantity",
        "/site/regions//payment", "/site/regions//description",
        "/site/regions//shipping", "/site/regions//mailbox"}) {
    members.push_back(PathOf(expr, db->tags()));
  }
  const SharedPrefixEstimate overlapping =
      EstimateSharedPrefix(stats, prefix, members, disk, cpu);
  EXPECT_TRUE(overlapping.beneficial)
      << "shared=" << overlapping.shared_cost()
      << " private=" << overlapping.private_cost_total;
  EXPECT_GT(overlapping.producer_cost, 0.0);
  EXPECT_LT(overlapping.shared_cost(), overlapping.private_cost_total);

  // Two queries sharing only the document root: the residuals ARE the
  // queries, and pooled random-access residual navigation is priced
  // above two private elevator plans — sharing must decline.
  const LocationPath root_prefix = PathOf("/site", db->tags());
  const std::vector<LocationPath> disjoint = {
      PathOf("/site/regions//item", db->tags()),
      PathOf("/site/people/person/email", db->tags())};
  const SharedPrefixEstimate shallow =
      EstimateSharedPrefix(stats, root_prefix, disjoint, disk, cpu);
  EXPECT_FALSE(shallow.beneficial)
      << "shared=" << shallow.shared_cost()
      << " private=" << shallow.private_cost_total;
}

/// Workload queries whose first two steps coincide. Eight members: the
/// estimator prices pooled residual navigation (random reads, about 4x an
/// elevator read) against one private elevator plan per member, so small
/// groups decline and the adoption threshold sits below eight.
const char* const kOverlapping[] = {
    "/site/regions//item",     "/site/regions//name",
    "/site/regions//location", "/site/regions//quantity",
    "/site/regions//payment",  "/site/regions//description",
    "/site/regions//shipping", "/site/regions//mailbox",
};

/// Workload queries that only share /site (below min sharing depth).
const char* const kDisjoint[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site/open_auctions//bidder",
    "/site/closed_auctions//price",
};

/// (job index, active-set size) per scheduling decision, from on_pull.
using PullSchedule = std::vector<std::pair<std::size_t, std::size_t>>;

Result<WorkloadResult> RunShareWorkload(
    XMarkFixture* fixture, const std::vector<std::string>& queries,
    bool enable_sharing, std::size_t share_buffer_pages = 64,
    std::size_t max_concurrent = 0, PullSchedule* schedule = nullptr) {
  WorkloadOptions options;
  options.policy = WorkloadPolicy::kHybrid;
  options.collect_nodes = true;
  options.stats = &fixture->stats();
  options.enable_sharing = enable_sharing;
  options.share_buffer_pages = share_buffer_pages;
  options.max_concurrent = max_concurrent;
  if (schedule != nullptr) {
    options.on_pull = [schedule](std::size_t job, std::size_t active) {
      schedule->emplace_back(job, active);
    };
  }
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const std::string& q : queries) {
    NAVPATH_RETURN_NOT_OK(executor.Add(q, PaperPlan(PlanKind::kXSchedule)));
  }
  return executor.Run();
}

// --- The shared schedule, pinned across commits ---------------------------
//
// Comparing two runs of one binary cannot catch a change that moves the
// simulated schedule. These digests were recorded by building the tests
// against an earlier commit; a change that moves the schedule on purpose
// re-records them and says why.

struct ShareDigests {
  std::uint64_t on_pull = 0;   // (job index, active size) per decision
  std::uint64_t finished = 0;  // per-query finished_at, in Add() order
  std::uint64_t metrics = 0;   // Metrics::ToString() of the run window
  std::uint64_t share = 0;     // every share.* counter, name and value
  bool operator==(const ShareDigests&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ShareDigests& d) {
  return os << std::hex << "{0x" << d.on_pull << "ull, 0x" << d.finished
            << "ull, 0x" << d.metrics << "ull, 0x" << d.share << "ull}"
            << std::dec;
}

ShareDigests DigestShareRun(const PullSchedule& schedule,
                            const WorkloadResult& result) {
  ShareDigests d;
  Fnv1a on_pull;
  for (const auto& [job, active] : schedule) {
    on_pull.Add(job);
    on_pull.Add(active);
  }
  d.on_pull = on_pull.h;
  Fnv1a finished;
  for (const WorkloadQueryResult& q : result.queries) {
    finished.Add(q.finished_at);
  }
  d.finished = finished.h;
  Fnv1a metrics;
  metrics.AddText(result.metrics.ToString());
  d.metrics = metrics.h;
  Fnv1a share;
  for (const auto& [name, value] : result.scheduler.counters) {
    if (name.rfind("share.", 0) != 0) continue;
    share.AddText(name);
    share.Add(value);
  }
  d.share = share.h;
  return d;
}

TEST(ShareWorkloadTest, SharedExecutionMatchesPrivateResults) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries(std::begin(kOverlapping),
                                         std::end(kOverlapping));

  auto private_run = RunShareWorkload(fixture->get(), queries, false);
  ASSERT_TRUE(private_run.ok()) << private_run.status().ToString();

  auto shared_run = RunShareWorkload(fixture->get(), queries, true);
  ASSERT_TRUE(shared_run.ok()) << shared_run.status().ToString();

  // Sharing must actually engage on this workload...
  EXPECT_EQ(shared_run->scheduler.CounterOr("share.groups_adopted"), 1u);
  EXPECT_EQ(shared_run->scheduler.CounterOr("share.members_shared"),
            queries.size());
  EXPECT_GT(shared_run->scheduler.CounterOr("share.producer_pulls"), 0u);
  EXPECT_GT(shared_run->scheduler.CounterOr("share.instances_streamed"),
            0u);
  const HistogramSummary* depth =
      shared_run->scheduler.FindHistogram("share.prefix_hit_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count, queries.size());
  EXPECT_EQ(depth->min, 2u);

  // ...and be invisible in the results.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(shared_run->queries[i].count, private_run->queries[i].count)
        << queries[i];
    EXPECT_EQ(OrdersOf(shared_run->queries[i].nodes),
              OrdersOf(private_run->queries[i].nodes))
        << queries[i];
  }
}

TEST(ShareWorkloadTest, SharingReducesPhysicalReads) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries(std::begin(kOverlapping),
                                         std::end(kOverlapping));

  auto private_run = RunShareWorkload(fixture->get(), queries, false);
  ASSERT_TRUE(private_run.ok()) << private_run.status().ToString();
  auto shared_run = RunShareWorkload(fixture->get(), queries, true);
  ASSERT_TRUE(shared_run.ok()) << shared_run.status().ToString();

  // One producer traverses the prefix region once instead of eight
  // times. The document is buffer-resident at this scale, so physical
  // page reads cannot grow (each page is fetched at most once either
  // way); the saving shows in cluster accesses by the I/O operators.
  EXPECT_LE(shared_run->metrics.disk_reads, private_run->metrics.disk_reads);
  EXPECT_LT(shared_run->metrics.clusters_visited,
            private_run->metrics.clusters_visited);
}

TEST(ShareWorkloadTest, DeclinedSharingIsByteIdentical) {
  // A workload with no shareable prefix (only /site in common, below the
  // minimum depth) must schedule EXACTLY as it does with sharing off:
  // same pull sequence, same makespan, zero adopted groups.
  const std::vector<std::string> queries(std::begin(kDisjoint),
                                         std::end(kDisjoint));

  auto fixture_off = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture_off.ok()) << fixture_off.status().ToString();
  PullSchedule schedule_off;
  auto off = RunShareWorkload(fixture_off->get(), queries, false, 64, 0,
                              &schedule_off);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  auto fixture_on = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture_on.ok()) << fixture_on.status().ToString();
  PullSchedule schedule_on;
  auto on = RunShareWorkload(fixture_on->get(), queries, true, 64, 0,
                             &schedule_on);
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  EXPECT_EQ(on->scheduler.CounterOr("share.groups_adopted"), 0u);
  ASSERT_FALSE(schedule_off.empty());
  EXPECT_EQ(schedule_on, schedule_off);
  EXPECT_EQ(on->total_time, off->total_time);
}

TEST(ShareWorkloadTest, SharedPullOrderIsDeterministic) {
  // Same seed => same shared pull order, producer advances included.
  const std::vector<std::string> queries(std::begin(kOverlapping),
                                         std::end(kOverlapping));
  auto first_fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(first_fixture.ok()) << first_fixture.status().ToString();
  auto second_fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(second_fixture.ok()) << second_fixture.status().ToString();

  PullSchedule first_schedule;
  auto first = RunShareWorkload(first_fixture->get(), queries, true, 64, 0,
                                &first_schedule);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  PullSchedule second_schedule;
  auto second = RunShareWorkload(second_fixture->get(), queries, true, 64,
                                 0, &second_schedule);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_FALSE(first_schedule.empty());
  EXPECT_EQ(first_schedule, second_schedule);
  EXPECT_EQ(first->total_time, second->total_time);

  // One adopted group of all eight members, pinned across commits.
  ASSERT_EQ(first->scheduler.CounterOr("share.groups_adopted"), 1u);
  ASSERT_EQ(first->scheduler.CounterOr("share.members_shared"),
            queries.size());
  const ShareDigests expected{0x9da5c3e8bf8ef983ull, 0xa1e0ed47736c3a48ull,
                              0xf90d3c7903e96d7ull, 0xbf6aea275b82001dull};
  EXPECT_EQ(DigestShareRun(first_schedule, *first), expected);
}

TEST(ShareWorkloadTest, SpillDetachesLaggardAndStaysExact) {
  // Serialized admission (max_concurrent = 1) with a one-page stream
  // budget: the unadmitted members lag at cursor 0 while the first
  // member streams past the budget, so they are detached and re-derive
  // their paths privately — with exactly-once results. The shared prefix
  // must out-produce the budget, so these queries share the
  // high-cardinality /site/regions//item instead of /site/regions.
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries = {
      "/site/regions//item/name",        "/site/regions//item/location",
      "/site/regions//item/quantity",    "/site/regions//item/payment",
      "/site/regions//item/description", "/site/regions//item/shipping",
      "/site/regions//item/incategory",  "/site/regions//item/mailbox",
  };

  auto private_run = RunShareWorkload(fixture->get(), queries, false);
  ASSERT_TRUE(private_run.ok()) << private_run.status().ToString();

  PullSchedule schedule;
  auto spilled = RunShareWorkload(fixture->get(), queries, true,
                                  /*share_buffer_pages=*/1,
                                  /*max_concurrent=*/1, &schedule);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(spilled->scheduler.CounterOr("share.groups_adopted"), 1u);
  EXPECT_GT(spilled->scheduler.CounterOr("share.spills"), 0u);
  EXPECT_GT(spilled->scheduler.CounterOr("share.private_fallbacks"), 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(spilled->queries[i].count, private_run->queries[i].count)
        << queries[i];
    EXPECT_EQ(OrdersOf(spilled->queries[i].nodes),
              OrdersOf(private_run->queries[i].nodes))
        << queries[i];
  }
  // Members detached before they started run the activation fallback
  // branch; the schedule it produces is pinned across commits.
  const ShareDigests expected{0xb09bc6c0ca36d8c3ull, 0x1f7d33a29b020e6cull,
                              0xa1d742c435bee7abull, 0xc434e9f8e57b7144ull};
  EXPECT_EQ(DigestShareRun(schedule, *spilled), expected);
}

}  // namespace
}  // namespace navpath
