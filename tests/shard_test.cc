// Tests for the path-partitioned sharded store: deterministic
// partitioning, summary-driven routing, cross-shard document-order
// merges byte-identical to the unsharded oracle, K=1 full-workload
// identity with the plain WorkloadExecutor, per-shard fault seeding, and
// the shard-combination validation rules at every entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "benchlib/harness.h"
#include "compiler/workload_executor.h"
#include "serve/server.h"
#include "shard/shard_executor.h"
#include "shard/shard_router.h"
#include "shard/sharded_store.h"
#include "storage/disk.h"
#include "store/clustering.h"
#include "txn/txn.h"
#include "xmark/generator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

// A workload mixing single-owner paths, multi-shard fan-outs, count
// aggregates over several operands, an exists probe, and a root query.
const char* const kShardQueries[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site//keyword",
    "count(/site/regions//item)",
    "count(/site//description)+count(/site//annotation)+count(/site//email)",
    "exists(/site/catgraph/edge)",
    "/site",
};

std::vector<std::uint64_t> OrdersOf(const std::vector<LogicalNode>& nodes) {
  std::vector<std::uint64_t> orders;
  orders.reserve(nodes.size());
  for (const LogicalNode& node : nodes) orders.push_back(node.order);
  return orders;
}

Result<std::unique_ptr<ShardedStore>> BuildSharded(
    double scale, std::size_t shards, FixtureOptions options = {}) {
  return CreateShardedXMark(scale, shards, options);
}

// --- Fault-seed derivation ------------------------------------------------

TEST(ShardFaultSeedTest, ShardZeroKeepsBaseSeed) {
  EXPECT_EQ(ShardFaultSeed(0, 0), 0u);
  EXPECT_EQ(ShardFaultSeed(42, 0), 42u);
  EXPECT_EQ(ShardFaultSeed(0xdeadbeef, 0), 0xdeadbeefu);
}

TEST(ShardFaultSeedTest, DistinctAndStableAcrossShards) {
  std::set<std::uint64_t> seeds;
  for (std::size_t k = 0; k < 16; ++k) {
    const std::uint64_t seed = ShardFaultSeed(42, k);
    EXPECT_EQ(seed, ShardFaultSeed(42, k)) << "shard " << k;
    EXPECT_TRUE(seeds.insert(seed).second)
        << "shard " << k << " collides with an earlier shard";
  }
  // Different base seeds must not share derived streams.
  EXPECT_NE(ShardFaultSeed(42, 1), ShardFaultSeed(43, 1));
}

// --- Cost-model fan-out estimate ------------------------------------------

TEST(ShardCostModelTest, EstimateShardFanout) {
  const ShardFanoutEstimate single = EstimateShardFanout({100.0}, 50.0, 1.0);
  EXPECT_EQ(single.participants, 1u);
  EXPECT_DOUBLE_EQ(single.parallel_cost, 100.0);
  EXPECT_DOUBLE_EQ(single.serial_cost, 100.0);
  EXPECT_DOUBLE_EQ(single.merge_cost, 0.0);  // width 1: no merge
  EXPECT_DOUBLE_EQ(single.speedup, 1.0);

  const ShardFanoutEstimate fan =
      EstimateShardFanout({100.0, 60.0, 40.0}, 50.0, 0.5);
  EXPECT_EQ(fan.participants, 3u);
  EXPECT_DOUBLE_EQ(fan.parallel_cost, 100.0);  // slowest drive
  EXPECT_DOUBLE_EQ(fan.serial_cost, 200.0);    // one drive pays the sum
  EXPECT_DOUBLE_EQ(fan.merge_cost, 25.0);
  EXPECT_DOUBLE_EQ(fan.speedup, 200.0 / 125.0);
}

// --- Partitioning ---------------------------------------------------------

TEST(ShardedStoreTest, PartitionCoversDocumentAndIsDeterministic) {
  auto store = BuildSharded(0.02, 4);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ((*store)->shard_count(), 4u);
  EXPECT_EQ((*store)->root_tag(), "site");

  const std::vector<ShardUnit>& units = (*store)->units();
  ASSERT_FALSE(units.empty());
  std::set<std::string> tags;
  for (const ShardUnit& unit : units) {
    EXPECT_LT(unit.owner, 4u) << unit.tag;
    EXPECT_GT(unit.weight, 0u) << unit.tag;
    EXPECT_GT(unit.subtrees, 0u) << unit.tag;
    EXPECT_TRUE(tags.insert(unit.tag).second)
        << "duplicate partition unit " << unit.tag;
    const auto owner = (*store)->OwnerOf(unit.tag);
    ASSERT_TRUE(owner.has_value()) << unit.tag;
    EXPECT_EQ(*owner, unit.owner) << unit.tag;
  }
  // XMark's root has exactly these six child groups.
  const std::set<std::string> expected = {"regions",       "categories",
                                          "catgraph",      "people",
                                          "open_auctions", "closed_auctions"};
  EXPECT_EQ(tags, expected);
  EXPECT_FALSE((*store)->OwnerOf("keyword").has_value());

  // Same options => same placement, weight for weight.
  auto again = BuildSharded(0.02, 4);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ((*again)->units().size(), units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ((*again)->units()[i].tag, units[i].tag);
    EXPECT_EQ((*again)->units()[i].owner, units[i].owner);
    EXPECT_EQ((*again)->units()[i].weight, units[i].weight);
    EXPECT_EQ((*again)->units()[i].subtrees, units[i].subtrees);
  }
}

TEST(ShardedStoreTest, SingleShardOwnsEverything) {
  auto store = BuildSharded(0.02, 1);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->shard_count(), 1u);
  for (const ShardUnit& unit : (*store)->units()) {
    EXPECT_EQ(unit.owner, 0u) << unit.tag;
  }
  ASSERT_NE((*store)->summary(0), nullptr);
}

TEST(ShardedStoreTest, GeneratesTheDocumentOnce) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    int calls = 0;
    ShardOptions options;
    options.shards = shards;
    options.source = [&calls](TagRegistry* tags) {
      ++calls;
      XMarkOptions xmark;
      xmark.scale = 0.01;
      return GenerateXMark(xmark, tags);
    };
    const std::size_t page_size = options.db.page_size;
    options.clustering = [page_size] {
      return std::make_unique<SubtreeClusteringPolicy>(page_size -
                                                       page_size / 8);
    };
    auto store = ShardedStore::Build(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(calls, 1) << shards << " shards";

    // Every shard's registry lists shard 0's names under the same ids.
    const TagRegistry& home = *(*store)->db(0)->tags();
    ASSERT_GT(home.size(), 0u);
    for (std::size_t k = 1; k < shards; ++k) {
      const TagRegistry& tags = *(*store)->db(k)->tags();
      ASSERT_EQ(tags.size(), home.size()) << "shard " << k;
      for (TagId id = 0; id < home.size(); ++id) {
        EXPECT_EQ(tags.Name(id), home.Name(id)) << "shard " << k;
      }
    }
  }
}

TEST(ShardedStoreTest, RequiresPathSummary) {
  FixtureOptions options;
  options.db.import.build_summary = false;
  auto store = BuildSharded(0.02, 2, options);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument())
      << store.status().ToString();
}

// --- Routing --------------------------------------------------------------

TEST(ShardRouterTest, SingleOwnerPathRoutesToOwningShard) {
  auto store = BuildSharded(0.02, 4);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardRouter router(store->get());

  auto route = router.Route("/site/regions//item");
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_FALSE(route->unrouted);
  ASSERT_EQ(route->width(), 1u);
  const auto owner = (*store)->OwnerOf("regions");
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(route->participants[0], *owner);
  EXPECT_EQ(route->root_dup, 0u);
}

TEST(ShardRouterTest, DescendantQueryFansOut) {
  auto store = BuildSharded(0.02, 4);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardRouter router(store->get());

  auto route = router.Route("count(/site//description)");
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_FALSE(route->unrouted);
  EXPECT_GT(route->width(), 1u);
  EXPECT_EQ(route->root_dup, 0u);
  for (const std::size_t k : route->participants) {
    EXPECT_FALSE(route->per_shard[k].paths.empty()) << "shard " << k;
  }
}

TEST(ShardRouterTest, RootQueryReportsReplicationOvercount) {
  auto store = BuildSharded(0.02, 4);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardRouter router(store->get());

  // "/site" selects the root element, which every shard replicates.
  auto route = router.Route("count(/site)");
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_FALSE(route->unrouted);
  EXPECT_EQ(route->width(), 4u);
  EXPECT_EQ(route->root_dup, 3u);
}

TEST(ShardRouterTest, OutOfDomainQueriesFallBackToHome) {
  auto store = BuildSharded(0.02, 2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardRouter router(store->get());

  for (const char* query : {
           "/site/regions/..",            // upward axis
           "/site//keyword/ancestor::*",  // upward axis, closure form
           "/site[regions]",              // predicate over the root
       }) {
    auto route = router.Route(query);
    ASSERT_TRUE(route.ok()) << query << ": " << route.status().ToString();
    EXPECT_TRUE(route->unrouted) << query;
    EXPECT_FALSE(route->reason.empty()) << query;
    ASSERT_EQ(route->width(), 1u) << query;
    EXPECT_EQ(route->participants[0], (*store)->home_shard()) << query;
  }
}

// --- Workload execution ---------------------------------------------------

struct WorkloadTrace {
  WorkloadResult result;
  std::vector<std::pair<std::size_t, std::size_t>> pulls;
};

Result<WorkloadTrace> RunUnsharded(XMarkFixture* fixture,
                                   WorkloadOptions options) {
  WorkloadTrace trace;
  options.stats = &fixture->stats();
  options.on_pull = [&trace](std::size_t job, std::size_t active) {
    trace.pulls.emplace_back(job, active);
  };
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const char* q : kShardQueries) {
    NAVPATH_RETURN_NOT_OK(
        executor.Add(q, PaperPlan(PlanKind::kXSchedule)));
  }
  NAVPATH_ASSIGN_OR_RETURN(trace.result, executor.Run());
  return trace;
}

struct ShardTrace {
  ShardWorkloadResult result;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> pulls;
};

Result<ShardTrace> RunSharded(ShardedStore* store, WorkloadOptions options) {
  ShardTrace trace;
  ShardedWorkloadExecutor executor(store, options);
  executor.on_shard_pull = [&trace](std::size_t shard, std::size_t job,
                                    std::size_t active) {
    trace.pulls.emplace_back(shard, job, active);
  };
  for (const char* q : kShardQueries) {
    NAVPATH_RETURN_NOT_OK(
        executor.Add(q, PaperPlan(PlanKind::kXSchedule)));
  }
  NAVPATH_ASSIGN_OR_RETURN(trace.result, executor.Run());
  return trace;
}

// Every predicate-free query must produce the unsharded single-query
// executor's answer (count and document order) through the sharded
// workload driver, at every shard count: fan-outs, the replicated root
// (reached by "/site", "count(/site)" and the descendant step "//site")
// and exists() probes.
TEST(ShardedWorkloadTest, MatchesExecuteQueryAcrossShardCounts) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();

  const std::vector<std::string> queries = {
      kQ6Prime,
      kQ7,
      kQ15,
      "/site/regions//item",
      "/site/people/person/email",
      "/site//keyword",
      "/site",
      "//site",
      "count(/site)",
      "exists(/site/catgraph/edge)",
      "exists(/site/regions/nosuchtag)",
  };

  std::vector<QueryRunResult> oracle;
  for (const std::string& q : queries) {
    auto result = (*fixture)->Run(q, PaperPlan(PlanKind::kXSchedule));
    ASSERT_TRUE(result.ok()) << q << ": " << result.status().ToString();
    oracle.push_back(*std::move(result));
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    auto store = BuildSharded(0.02, shards);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    WorkloadOptions options;
    options.collect_nodes = true;
    ShardedWorkloadExecutor executor(store->get(), options);
    for (const std::string& q : queries) {
      ASSERT_TRUE(executor.Add(q, PaperPlan(PlanKind::kXSchedule)).ok())
          << "K=" << shards << " " << q;
    }
    auto run = executor.Run();
    ASSERT_TRUE(run.ok()) << "K=" << shards << ": "
                          << run.status().ToString();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const WorkloadQueryResult& sharded = run->queries[i];
      EXPECT_TRUE(sharded.status.ok())
          << "K=" << shards << " " << queries[i] << ": "
          << sharded.status.ToString();
      EXPECT_EQ(sharded.count, oracle[i].count)
          << "K=" << shards << " " << queries[i];
      EXPECT_EQ(OrdersOf(sharded.nodes), OrdersOf(oracle[i].nodes))
          << "K=" << shards << " " << queries[i];
    }
  }
}

// exists() answers 0 or 1 — the OR over its operand paths — through every
// driver: ExecuteQuery, WorkloadExecutor::Run, the serving layer and the
// sharded workload driver at K=2.
TEST(CrossDriverTest, ExistsAnswersMatchExecuteQuery) {
  const std::vector<std::string> queries = {
      "exists(/site//bold)",
      "exists(/site/regions/nosuchtag)+exists(/site//keyword)",
      "exists(/site/regions/nosuchtag)",
  };
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();
  const PlanOptions plan = PaperPlan(PlanKind::kXSchedule);

  std::vector<std::uint64_t> expected;
  for (const std::string& q : queries) {
    auto solo = fx->Run(q, plan);
    ASSERT_TRUE(solo.ok()) << q << ": " << solo.status().ToString();
    expected.push_back(solo->count);
  }
  EXPECT_EQ(expected, (std::vector<std::uint64_t>{1, 1, 0}));

  WorkloadOptions options;
  options.stats = &fx->stats();
  WorkloadExecutor executor(fx->db(), fx->doc(), options);
  for (const std::string& q : queries) {
    ASSERT_TRUE(executor.Add(q, plan).ok()) << q;
  }
  auto run = executor.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ServeOptions serve;
  serve.tenants.resize(1);
  serve.tenants[0].name = "only";
  serve.workload.stats = &fx->stats();
  Server server(fx->db(), fx->doc(), serve);
  for (const std::string& q : queries) {
    ASSERT_TRUE(server.Submit(0, q, plan, 0).ok()) << q;
  }
  auto served = server.Run();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  auto store = BuildSharded(0.02, 2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ShardedWorkloadExecutor sharded(store->get(), WorkloadOptions{});
  for (const std::string& q : queries) {
    ASSERT_TRUE(sharded.Add(q, plan).ok()) << q;
  }
  auto sharded_run = sharded.Run();
  ASSERT_TRUE(sharded_run.ok()) << sharded_run.status().ToString();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run->queries[i].count, expected[i]) << "Run: " << queries[i];
    EXPECT_EQ(served->outcomes[i].count, expected[i])
        << "Server: " << queries[i];
    EXPECT_EQ(sharded_run->queries[i].count, expected[i])
        << "K=2: " << queries[i];
  }
}

// Predicated paths run as segments with filter steps in every driver's
// one query lifecycle: ExecuteQuery, WorkloadExecutor::Run, the serving
// layer and the sharded driver at K=1 (whose router sends predicated
// queries to the home shard) must each give the DOM oracle's count and
// document-order nodes, under every plan kind. The relative path needs
// context nodes, which only the parsed-query Add() of ExecuteQuery and
// Run() takes.
TEST(CrossDriverTest, PredicatesMatchTheOracleInEveryDriver) {
  constexpr double kScale = 0.02;
  const std::vector<std::string> queries = {
      "/site/regions//item[@id]/name",
      "/site/people/person[@id=\"person0\"]/name",
      "/site/people/person[profile[interest]]/name",
      "count(/site/regions//item[@id]/name)",
      "exists(/site/people/person[@id=\"person0\"])",
      "exists(/site/people/person[@id=\"nobody\"])",
  };
  const std::string relative = "person[address[city]]/email";
  auto fixture = XMarkFixture::Create(kScale);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();
  XMarkOptions xmark;
  xmark.scale = kScale;
  const DomTree tree = GenerateXMark(xmark, fx->db()->tags());

  struct Expected {
    std::uint64_t count = 0;
    std::vector<std::uint64_t> orders;
  };
  const auto oracle = [&](const PathQuery& query, DomNodeId context) {
    Expected e;
    if (query.mode != PathQuery::Mode::kNodes) {
      e.count = OracleCount(tree, query, context);
      return e;
    }
    for (const DomNodeId n :
         OracleEvaluate(tree, query.paths.front(), context)) {
      e.orders.push_back(tree.node(n).order);
    }
    e.count = e.orders.size();
    return e;
  };
  std::vector<PathQuery> parsed;
  std::vector<Expected> expected;
  for (const std::string& q : queries) {
    auto query = ParseQuery(q, fx->db()->tags());
    ASSERT_TRUE(query.ok()) << q << ": " << query.status().ToString();
    expected.push_back(oracle(*query, tree.root()));
    parsed.push_back(*std::move(query));
  }
  EXPECT_GT(expected[0].count, 0u);
  EXPECT_EQ(expected[1].count, 1u);
  EXPECT_GT(expected[2].count, 0u);
  EXPECT_EQ(expected[4].count, 1u);
  EXPECT_EQ(expected[5].count, 0u);

  // The relative path's context: /site/people, in the store and the DOM.
  auto people_path = ParsePath("/site/people", fx->db()->tags());
  ASSERT_TRUE(people_path.ok());
  const std::vector<DomNodeId> people_dom =
      OracleEvaluate(tree, *people_path, tree.root());
  ASSERT_EQ(people_dom.size(), 1u);
  auto people = fx->Run("/site/people", PaperPlan(PlanKind::kXSchedule));
  ASSERT_TRUE(people.ok()) << people.status().ToString();
  ASSERT_EQ(people->nodes.size(), 1u);
  auto relative_query = ParseQuery(relative, fx->db()->tags());
  ASSERT_TRUE(relative_query.ok()) << relative_query.status().ToString();
  const Expected relative_expected =
      oracle(*relative_query, people_dom.front());
  EXPECT_GT(relative_expected.count, 0u);

  auto store = BuildSharded(kScale, 1);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    const PlanOptions plan = PaperPlan(kind);
    const std::string tag = PlanKindName(kind);
    const auto check = [&](const std::string& driver, std::size_t i,
                           std::uint64_t count,
                           const std::vector<LogicalNode>& nodes) {
      const Expected& e =
          i < queries.size() ? expected[i] : relative_expected;
      const std::string& q = i < queries.size() ? queries[i] : relative;
      EXPECT_EQ(count, e.count) << driver << " " << tag << ": " << q;
      EXPECT_EQ(OrdersOf(nodes), e.orders)
          << driver << " " << tag << ": " << q;
    };

    for (std::size_t i = 0; i < parsed.size(); ++i) {
      ExecuteOptions exec;
      exec.plan = plan;
      exec.collect_nodes = parsed[i].mode == PathQuery::Mode::kNodes;
      auto solo = ExecuteQuery(fx->db(), fx->doc(), parsed[i], exec);
      ASSERT_TRUE(solo.ok()) << queries[i] << ": "
                             << solo.status().ToString();
      check("ExecuteQuery", i, solo->count, solo->nodes);
    }
    ExecuteOptions exec;
    exec.plan = plan;
    exec.collect_nodes = true;
    exec.contexts = people->nodes;
    auto solo = ExecuteQuery(fx->db(), fx->doc(), *relative_query, exec);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    check("ExecuteQuery", queries.size(), solo->count, solo->nodes);

    WorkloadOptions options;
    options.collect_nodes = true;
    options.stats = &fx->stats();
    WorkloadExecutor executor(fx->db(), fx->doc(), options);
    for (const PathQuery& query : parsed) {
      ASSERT_TRUE(executor.Add(query, plan).ok()) << query.ToString();
    }
    ASSERT_TRUE(executor.Add(*relative_query, plan, people->nodes).ok());
    auto run = executor.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (std::size_t i = 0; i < run->queries.size(); ++i) {
      ASSERT_TRUE(run->queries[i].status.ok())
          << run->queries[i].status.ToString();
      check("Run", i, run->queries[i].count, run->queries[i].nodes);
    }

    ServeOptions serve;
    serve.tenants.resize(1);
    serve.tenants[0].name = "only";
    serve.workload.stats = &fx->stats();
    serve.workload.collect_nodes = true;
    Server server(fx->db(), fx->doc(), serve);
    for (const std::string& q : queries) {
      ASSERT_TRUE(server.Submit(0, q, plan, 0).ok()) << q;
    }
    auto served = server.Run();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->workload.queries.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(served->outcomes[i].status.ok())
          << served->outcomes[i].status.ToString();
      check("Server", i, served->outcomes[i].count,
            served->workload.queries[i].nodes);
    }

    WorkloadOptions shard_options;
    shard_options.collect_nodes = true;
    ShardedWorkloadExecutor sharded(store->get(), shard_options);
    for (const std::string& q : queries) {
      ASSERT_TRUE(sharded.Add(q, plan).ok()) << q;
    }
    auto sharded_run = sharded.Run();
    ASSERT_TRUE(sharded_run.ok()) << sharded_run.status().ToString();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(sharded_run->queries[i].status.ok())
          << sharded_run->queries[i].status.ToString();
      check("K=1", i, sharded_run->queries[i].count,
            sharded_run->queries[i].nodes);
    }
  }
}

// A count()/exists() operand in the path summary's exactness domain is
// answered from the summary by every driver when the plan options allow
// it: the workload drivers give ExecuteQuery's answers without entering a
// cluster or reading a page. With use_summary off the same queries still
// navigate, and a workload's exists() stops at its first hit.
TEST(CrossDriverTest, SummaryAnswersMatchExecuteQueryInEveryDriver) {
  const std::vector<std::string> queries = {
      kQ6Prime,
      kQ7,
      "count(/site/regions/item)",
      "exists(/site//bold)",
      "exists(/site/regions/nosuchtag)+exists(/site//keyword)",
      "exists(/site/regions/nosuchtag)",
      "count(/site//bold)",
  };
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  XMarkFixture* fx = fixture->get();
  auto store = BuildSharded(0.02, 1);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  for (const bool use_summary : {true, false}) {
    PlanOptions plan = PaperPlan(PlanKind::kXSchedule);
    plan.use_summary = use_summary;
    const std::string arm = use_summary ? "summary on" : "summary off";

    std::vector<std::uint64_t> expected;
    for (const std::string& q : queries) {
      auto solo = fx->Run(q, plan);
      ASSERT_TRUE(solo.ok()) << q << ": " << solo.status().ToString();
      EXPECT_EQ(solo->metrics.clusters_visited == 0, use_summary)
          << arm << ": " << q;
      expected.push_back(solo->count);
    }
    EXPECT_EQ(expected[2], 0u);
    EXPECT_EQ(expected[3], 1u);
    EXPECT_EQ(expected[4], 1u);
    EXPECT_EQ(expected[5], 0u);

    WorkloadOptions options;
    options.stats = &fx->stats();
    WorkloadExecutor executor(fx->db(), fx->doc(), options);
    for (const std::string& q : queries) {
      ASSERT_TRUE(executor.Add(q, plan).ok()) << q;
    }
    auto run = executor.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    ServeOptions serve;
    serve.tenants.resize(1);
    serve.tenants[0].name = "only";
    serve.workload.stats = &fx->stats();
    Server server(fx->db(), fx->doc(), serve);
    for (const std::string& q : queries) {
      ASSERT_TRUE(server.Submit(0, q, plan, 0).ok()) << q;
    }
    auto served = server.Run();
    ASSERT_TRUE(served.ok()) << served.status().ToString();

    ShardedWorkloadExecutor sharded(store->get(), WorkloadOptions{});
    for (const std::string& q : queries) {
      ASSERT_TRUE(sharded.Add(q, plan).ok()) << q;
    }
    auto sharded_run = sharded.Run();
    ASSERT_TRUE(sharded_run.ok()) << sharded_run.status().ToString();

    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(run->queries[i].count, expected[i])
          << arm << " Run: " << queries[i];
      EXPECT_EQ(served->outcomes[i].count, expected[i])
          << arm << " Server: " << queries[i];
      EXPECT_EQ(sharded_run->queries[i].count, expected[i])
          << arm << " K=1: " << queries[i];
    }
    // exists(/site//bold) takes one pull per bold node when it runs to
    // exhaustion, as count(/site//bold) does.
    if (!use_summary) {
      EXPECT_LT(run->queries[3].pulls * 4, run->queries[6].pulls);
    }
    const Metrics* windows[] = {&run->metrics, &served->workload.metrics,
                                &sharded_run->metrics};
    for (const Metrics* m : windows) {
      if (use_summary) {
        EXPECT_EQ(m->clusters_visited, 0u) << arm;
        EXPECT_EQ(m->disk_reads, 0u) << arm;
      } else {
        EXPECT_GT(m->clusters_visited, 0u) << arm;
        EXPECT_GT(m->disk_reads, 0u) << arm;
      }
    }
  }
}

// The K=1 identity the subsystem is gated on: one shard, same options =>
// the exact run a plain WorkloadExecutor produces, down to the pull
// schedule, simulated times, and I/O metrics.
TEST(ShardedWorkloadTest, SingleShardByteIdenticalToUnsharded) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto store = BuildSharded(0.02, 1);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  WorkloadOptions options;
  options.policy = WorkloadPolicy::kHybrid;
  options.collect_nodes = true;

  auto plain = RunUnsharded(fixture->get(), options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  options.stats = nullptr;  // the sharded executor injects per-shard stats
  auto sharded = RunSharded(store->get(), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  // Pull-for-pull identical schedule, all on shard 0.
  ASSERT_EQ(sharded->pulls.size(), plain->pulls.size());
  for (std::size_t i = 0; i < plain->pulls.size(); ++i) {
    EXPECT_EQ(std::get<0>(sharded->pulls[i]), 0u);
    EXPECT_EQ(std::get<1>(sharded->pulls[i]), plain->pulls[i].first);
    EXPECT_EQ(std::get<2>(sharded->pulls[i]), plain->pulls[i].second);
  }

  const WorkloadResult& a = plain->result;
  const ShardWorkloadResult& b = sharded->result;
  EXPECT_EQ(b.total_time, a.total_time);
  EXPECT_EQ(b.cpu_time, a.cpu_time);
  EXPECT_EQ(b.metrics.disk_reads, a.metrics.disk_reads);
  EXPECT_EQ(b.metrics.disk_seq_reads, a.metrics.disk_seq_reads);
  EXPECT_EQ(b.metrics.disk_seek_pages, a.metrics.disk_seek_pages);
  EXPECT_EQ(b.metrics.buffer_hits, a.metrics.buffer_hits);
  EXPECT_EQ(b.metrics.buffer_misses, a.metrics.buffer_misses);
  EXPECT_EQ(b.metrics.node_tests, a.metrics.node_tests);
  EXPECT_EQ(b.metrics.clusters_visited, a.metrics.clusters_visited);
  EXPECT_EQ(b.metrics.requests_merged, a.metrics.requests_merged);

  ASSERT_EQ(b.queries.size(), a.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(b.queries[i].count, a.queries[i].count) << kShardQueries[i];
    EXPECT_EQ(b.queries[i].pulls, a.queries[i].pulls) << kShardQueries[i];
    EXPECT_EQ(b.queries[i].finished_at, a.queries[i].finished_at)
        << kShardQueries[i];
    ASSERT_EQ(b.queries[i].nodes.size(), a.queries[i].nodes.size())
        << kShardQueries[i];
    for (std::size_t n = 0; n < a.queries[i].nodes.size(); ++n) {
      EXPECT_EQ(b.queries[i].nodes[n].id, a.queries[i].nodes[n].id);
      EXPECT_EQ(b.queries[i].nodes[n].order, a.queries[i].nodes[n].order);
    }
  }
}

// Fan-out runs must still merge back to the oracle's counts and document
// order at every K.
TEST(ShardedWorkloadTest, FanOutMatchesUnshardedResults) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  WorkloadOptions options;
  options.collect_nodes = true;
  auto plain = RunUnsharded(fixture->get(), options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    auto store = BuildSharded(0.02, shards);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    WorkloadOptions shard_options;
    shard_options.collect_nodes = true;
    auto sharded = RunSharded(store->get(), shard_options);
    ASSERT_TRUE(sharded.ok())
        << "K=" << shards << ": " << sharded.status().ToString();

    ASSERT_EQ(sharded->result.queries.size(), plain->result.queries.size());
    for (std::size_t i = 0; i < plain->result.queries.size(); ++i) {
      EXPECT_EQ(sharded->result.queries[i].count,
                plain->result.queries[i].count)
          << "K=" << shards << " " << kShardQueries[i];
      EXPECT_EQ(OrdersOf(sharded->result.queries[i].nodes),
                OrdersOf(plain->result.queries[i].nodes))
          << "K=" << shards << " " << kShardQueries[i];
    }
  }
}

TEST(ShardedWorkloadTest, DeterministicAcrossRebuilds) {
  WorkloadOptions options;
  options.collect_nodes = true;

  auto store_a = BuildSharded(0.02, 2);
  ASSERT_TRUE(store_a.ok()) << store_a.status().ToString();
  auto run_a = RunSharded(store_a->get(), options);
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();

  auto store_b = BuildSharded(0.02, 2);
  ASSERT_TRUE(store_b.ok()) << store_b.status().ToString();
  auto run_b = RunSharded(store_b->get(), options);
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();

  EXPECT_EQ(run_a->pulls, run_b->pulls);
  EXPECT_EQ(run_a->result.total_time, run_b->result.total_time);
  EXPECT_EQ(run_a->result.metrics.disk_reads,
            run_b->result.metrics.disk_reads);
  ASSERT_EQ(run_a->result.queries.size(), run_b->result.queries.size());
  for (std::size_t i = 0; i < run_a->result.queries.size(); ++i) {
    EXPECT_EQ(run_a->result.queries[i].count,
              run_b->result.queries[i].count);
    EXPECT_EQ(OrdersOf(run_a->result.queries[i].nodes),
              OrdersOf(run_b->result.queries[i].nodes));
  }
}

TEST(ShardedWorkloadTest, ExposesShardObservability) {
  auto store = BuildSharded(0.02, 2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  WorkloadOptions options;
  options.collect_nodes = true;
  auto run = RunSharded(store->get(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const RegistrySnapshot& snapshot = run->result.scheduler;
  // kShardQueries has fan-out, single-shard, and root queries.
  EXPECT_GT(snapshot.CounterOr("shard.fanout"), 0u);
  EXPECT_GT(snapshot.CounterOr("shard.routed.single"), 0u);
  // "/site" ran on both shards; its duplicate root was merged away.
  EXPECT_GT(snapshot.CounterOr("shard.merge.duplicates"), 0u);
  const HistogramSummary* width =
      snapshot.FindHistogram("shard.fanout.width");
  ASSERT_NE(width, nullptr);
  EXPECT_EQ(width->count, std::size(kShardQueries));

  ASSERT_EQ(run->result.utilization.size(), 2u);
  bool some_busy = false;
  for (const double utilization : run->result.utilization) {
    EXPECT_GE(utilization, 0.0);
    EXPECT_LE(utilization, 1.0);
    some_busy |= utilization > 0.0;
  }
  EXPECT_TRUE(some_busy);
}

// Per-shard utilization is the drive's busy time during the run over the
// makespan. The run's cold start zeroes the busy time, so the reading
// after Run() is the run's own. Repeating the query mix over a small pool
// keeps every drive busier than the import did: a reading that took the
// import's busy time off the run's would come out too low.
TEST(ShardedWorkloadTest, UtilizationIsRunBusyTimeOverMakespan) {
  FixtureOptions fixture_options;
  fixture_options.db.buffer_pages = 16;
  for (const std::size_t shards : {1u, 2u}) {
    auto store = BuildSharded(0.02, shards, fixture_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<SimTime> import_busy;
    for (std::size_t k = 0; k < shards; ++k) {
      import_busy.push_back((*store)->db(k)->disk()->busy_time());
    }
    ShardedWorkloadExecutor executor(store->get(), WorkloadOptions{});
    for (int round = 0; round < 4; ++round) {
      for (const char* q : kShardQueries) {
        ASSERT_TRUE(executor.Add(q, PaperPlan(PlanKind::kXScan)).ok()) << q;
      }
    }
    auto run = executor.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->utilization.size(), shards);
    ASSERT_GT(run->total_time, 0u);
    for (std::size_t k = 0; k < shards; ++k) {
      const SimTime busy = (*store)->db(k)->disk()->busy_time();
      ASSERT_GT(busy, import_busy[k]) << "K=" << shards << " shard " << k;
      EXPECT_DOUBLE_EQ(run->utilization[k],
                       static_cast<double>(busy) /
                           static_cast<double>(run->total_time))
          << "K=" << shards << " shard " << k;
    }
  }
}

// --- Fault seeding --------------------------------------------------------

TEST(ShardedWorkloadTest, FaultStreamsAreDeterministicPerShard) {
  FixtureOptions options;
  options.db.faults.seed = 42;
  options.db.faults.transient_read_error_rate = 0.02;
  options.db.faults.latency_spike_rate = 0.02;

  WorkloadOptions workload;
  workload.collect_nodes = true;

  // Same build + same run => the same injected faults, twice.
  auto store_a = BuildSharded(0.02, 2, options);
  ASSERT_TRUE(store_a.ok()) << store_a.status().ToString();
  auto run_a = RunSharded(store_a->get(), workload);
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();

  auto store_b = BuildSharded(0.02, 2, options);
  ASSERT_TRUE(store_b.ok()) << store_b.status().ToString();
  auto run_b = RunSharded(store_b->get(), workload);
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();

  EXPECT_GT(run_a->result.metrics.faults_injected, 0u);
  EXPECT_EQ(run_a->result.metrics.faults_injected,
            run_b->result.metrics.faults_injected);
  EXPECT_EQ(run_a->result.metrics.fault_retries,
            run_b->result.metrics.fault_retries);
  EXPECT_EQ(run_a->result.total_time, run_b->result.total_time);
  for (std::size_t i = 0; i < run_a->result.queries.size(); ++i) {
    EXPECT_EQ(run_a->result.queries[i].count,
              run_b->result.queries[i].count);
  }

  // K=1 replays the unsharded fault stream exactly (base seed kept).
  auto fixture = XMarkFixture::Create(0.02, options);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto plain = RunUnsharded(fixture->get(), workload);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto store_one = BuildSharded(0.02, 1, options);
  ASSERT_TRUE(store_one.ok()) << store_one.status().ToString();
  workload.stats = nullptr;
  auto run_one = RunSharded(store_one->get(), workload);
  ASSERT_TRUE(run_one.ok()) << run_one.status().ToString();
  EXPECT_EQ(run_one->result.metrics.faults_injected,
            plain->result.metrics.faults_injected);
  EXPECT_EQ(run_one->result.metrics.fault_retries,
            plain->result.metrics.fault_retries);
  EXPECT_EQ(run_one->result.total_time, plain->result.total_time);
}

// --- Validation and entry-point rejection ---------------------------------

TEST(ShardValidationTest, RejectsShardsCombinedWithTransactions) {
  auto fixture = XMarkFixture::Create(0.01);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto store = BuildSharded(0.01, 1);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  TxnManager txn((*fixture)->db(), (*fixture)->mutable_doc());

  WorkloadOptions options;
  options.txn = &txn;
  ShardedWorkloadExecutor executor(store->get(), options);
  ASSERT_TRUE(executor.Add("/site//keyword",
                           PaperPlan(PlanKind::kXSchedule)).ok());
  auto run = executor.Run();
  ASSERT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
  EXPECT_NE(run.status().ToString().find("transactions"), std::string::npos)
      << run.status().ToString();
}

TEST(ShardedWorkloadTest, RejectsOutOfDomainQueriesAtMultiShard) {
  auto store = BuildSharded(0.02, 2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  WorkloadOptions options;
  options.collect_nodes = true;
  ShardedWorkloadExecutor executor(store->get(), options);
  for (const char* query : {
           "/site/regions/..",            // upward axis
           "//item[mailbox/mail]",        // predicate
           "/site[regions]",              // predicate over the root
       }) {
    const Status status =
        executor.Add(query, PaperPlan(PlanKind::kXSchedule));
    EXPECT_TRUE(status.IsInvalidArgument()) << query << ": "
                                            << status.ToString();
  }

  // The upward query is fine at K=1 (the home shard holds everything)
  // and matches the unsharded oracle.
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto oracle = (*fixture)->Run("/site/regions/..",
                                PaperPlan(PlanKind::kXSchedule));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  auto one = BuildSharded(0.02, 1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ShardedWorkloadExecutor single(one->get(), options);
  ASSERT_TRUE(
      single.Add("/site/regions/..", PaperPlan(PlanKind::kXSchedule)).ok());
  auto sharded = single.Run();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->queries[0].count, oracle->count);
  EXPECT_EQ(OrdersOf(sharded->queries[0].nodes), OrdersOf(oracle->nodes));
}

}  // namespace
}  // namespace navpath
