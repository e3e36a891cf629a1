// Property tests for the navigational primitives: for random documents,
// random clusterings, every axis and every context node, cross-cluster
// navigation over the paged store must produce exactly the nodes the DOM
// oracle produces, in the same order.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "tests/test_util.h"
#include "xpath/oracle.h"

namespace navpath {
namespace {

struct NavCase {
  std::string policy;
  std::uint64_t seed;
  std::size_t nodes;
};

DatabaseOptions CaseOptions() {
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 128;
  return options;
}

DomTree CaseTree(const NavCase& param, TagRegistry* tags) {
  RandomTreeOptions tree_options;
  tree_options.node_count = param.nodes;
  tree_options.max_fanout = 6;
  return MakeRandomTree(tree_options, param.seed, tags);
}

std::unique_ptr<ClusteringPolicy> CasePolicy(const NavCase& param) {
  if (param.policy == "subtree") {
    return std::make_unique<SubtreeClusteringPolicy>(448);
  }
  if (param.policy == "random") {
    return std::make_unique<RandomClusteringPolicy>(448, param.seed + 1);
  }
  return std::make_unique<RoundRobinClusteringPolicy>(448);
}

std::string CaseName(const ::testing::TestParamInfo<NavCase>& info) {
  std::string name = info.param.policy + "_" +
                     std::to_string(info.param.nodes) + "_s" +
                     std::to_string(info.param.seed);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class AxisNavigation : public ::testing::TestWithParam<NavCase> {};

TEST_P(AxisNavigation, MatchesOracleOnEveryNodeAndAxis) {
  const NavCase& param = GetParam();
  Database db(CaseOptions());
  const DomTree tree = CaseTree(param, db.tags());
  auto doc = db.Import(tree, CasePolicy(param).get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  auto mapping = MapOrderToNodeID(&db, *doc, tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();

  constexpr Axis kAxes[] = {
      Axis::kSelf,          Axis::kChild,
      Axis::kParent,        Axis::kDescendant,
      Axis::kDescendantOrSelf, Axis::kAncestor,
      Axis::kAncestorOrSelf,   Axis::kFollowingSibling,
      Axis::kPrecedingSibling,  Axis::kAttribute,
  };

  CrossClusterCursor cursor(&db);
  for (DomNodeId ctx = 0; ctx < tree.size(); ++ctx) {
    for (const Axis axis : kAxes) {
      LocationStep step{axis, NodeTest::AnyNode(), {}};
      const std::vector<DomNodeId> expected = OracleStep(tree, ctx, step);

      const NodeID origin = mapping->at(tree.node(ctx).order);
      ASSERT_TRUE(cursor.Start(axis, origin).ok());
      std::vector<std::uint64_t> got_orders;
      LogicalNode node;
      for (;;) {
        auto more = cursor.Next(&node);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        if (!*more) break;
        got_orders.push_back(node.order);
      }

      std::vector<std::uint64_t> expected_orders;
      expected_orders.reserve(expected.size());
      for (const DomNodeId n : expected) {
        expected_orders.push_back(tree.node(n).order);
      }
      // Chain/DFS enumeration order must match the oracle's axis order
      // for forward axes; reverse axes enumerate outward (reverse
      // document order), which the oracle also produces.
      ASSERT_EQ(got_orders, expected_orders)
          << "axis " << AxisName(axis) << " at node order "
          << tree.node(ctx).order << " (policy " << param.policy << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, AxisNavigation,
    ::testing::Values(NavCase{"subtree", 11, 300},
                      NavCase{"subtree", 12, 700},
                      NavCase{"random", 13, 300},
                      NavCase{"random", 14, 700},
                      NavCase{"round-robin", 15, 300},
                      NavCase{"round-robin", 16, 500},
                      NavCase{"random", 17, 60},
                      NavCase{"subtree", 18, 1200}),
    CaseName);

// --- AxisCursor::Scan against a filtered Next ------------------------------

// One return of an enumeration and everything charged up to it. The
// exhausted return is recorded too, with kInvalidSlot.
struct ScanReturn {
  SlotId slot = kInvalidSlot;
  bool crossing = false;
  SimTime now = 0;
  SimTime cpu = 0;
  std::uint64_t hops = 0;
  std::uint64_t tests = 0;
  bool operator==(const ScanReturn&) const = default;
};

// A view of `data` that charges a clock and counters of its own.
struct ChargedView {
  SimClock clock;
  Metrics metrics;
  ClusterView view;
  ChargedView(const std::byte* data, const Database& db, PageId page)
      : view(data, db.options().page_size, page, &clock,
             &db.options().cpu_costs, &metrics) {}
  ScanReturn Record(SlotId slot, bool crossing) const {
    return ScanReturn{slot,          crossing,
                      clock.now(),   clock.cpu_time(),
                      metrics.intra_cluster_hops, metrics.node_tests};
  }
};

// What XStep did before the scan: Next(), one node test charged per
// non-crossing entry, and a return at each crossing or match.
std::vector<ScanReturn> FilteredNext(ChargedView* v, const CpuCostModel& costs,
                                     Axis axis, SlotId origin,
                                     std::optional<TagId> tag) {
  AxisCursor cursor(v->view, axis, origin);
  std::vector<ScanReturn> returns;
  NavEntry entry;
  while (cursor.Next(&entry)) {
    if (!entry.crossing) {
      v->clock.ChargeCpu(costs.node_test);
      ++v->metrics.node_tests;
      if (tag.has_value() && v->view.TagOf(entry.slot) != *tag) continue;
    }
    returns.push_back(v->Record(entry.slot, entry.crossing));
  }
  returns.push_back(v->Record(kInvalidSlot, false));
  return returns;
}

std::vector<ScanReturn> Scanned(ChargedView* v, Axis axis, SlotId origin,
                                std::optional<TagId> tag) {
  AxisCursor cursor(v->view, axis, origin);
  std::vector<ScanReturn> returns;
  NavEntry entry;
  while (cursor.Scan(tag, &entry)) {
    returns.push_back(v->Record(entry.slot, entry.crossing));
  }
  returns.push_back(v->Record(kInvalidSlot, false));
  return returns;
}

class ScanDifferential : public ::testing::TestWithParam<NavCase> {};

TEST_P(ScanDifferential, ScanMatchesFilteredNextOnEveryOriginAxisAndTest) {
  Database db(CaseOptions());
  auto doc = db.Import(CaseTree(GetParam(), db.tags()),
                       CasePolicy(GetParam()).get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // Every element and attribute name, and "any" (the scan's `*` and
  // `node()`).
  std::vector<std::optional<TagId>> tests{std::nullopt};
  for (TagId tag = 0; tag < db.tags()->size(); ++tag) tests.push_back(tag);

  constexpr Axis kAxes[] = {
      Axis::kSelf,          Axis::kChild,
      Axis::kParent,        Axis::kDescendant,
      Axis::kDescendantOrSelf, Axis::kAncestor,
      Axis::kAncestorOrSelf,   Axis::kFollowingSibling,
      Axis::kPrecedingSibling,  Axis::kAttribute,
  };
  const CpuCostModel& costs = db.options().cpu_costs;
  std::uint64_t origins[4] = {0, 0, 0, 0};  // by RecordKind
  std::uint64_t skipping_scans = 0;
  for (PageId page = doc->first_page; page <= doc->last_page; ++page) {
    auto guard = db.buffer()->Fix(page);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    const std::byte* data = guard->data();
    const ClusterView layout(data, db.options().page_size, page,
                             db.clock(), &costs, db.metrics());
    for (SlotId origin = 0; origin < layout.slot_count(); ++origin) {
      if (!layout.IsLive(origin)) continue;
      ++origins[static_cast<int>(layout.KindOf(origin))];
      for (const Axis axis : kAxes) {
        for (const std::optional<TagId>& tag : tests) {
          ChargedView reference(data, db, page);
          ChargedView scan(data, db, page);
          const std::vector<ScanReturn> want =
              FilteredNext(&reference, costs, axis, origin, tag);
          const std::vector<ScanReturn> got =
              Scanned(&scan, axis, origin, tag);
          ASSERT_EQ(got, want)
              << "page " << page << " origin " << origin << " axis "
              << AxisName(axis) << " test "
              << (tag.has_value() ? db.tags()->Name(*tag) : "node()");
          // Some entry was passed over, not returned.
          if (got.back().tests > got.size() - 1) ++skipping_scans;
        }
      }
    }
  }
  // Origins of every record kind, and scans that skip, were exercised.
  for (int kind = 0; kind < 4; ++kind) {
    EXPECT_GT(origins[kind], 0u) << "record kind " << kind;
  }
  EXPECT_GT(skipping_scans, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ScanDifferential,
    ::testing::Values(NavCase{"subtree", 31, 400},
                      NavCase{"random", 32, 400},
                      NavCase{"round-robin", 33, 400}),
    CaseName);

TEST(NavigationTest, NameTestsFilterByTag) {
  DatabaseOptions options;
  options.page_size = 512;
  Database db(options);
  RandomTreeOptions tree_options;
  tree_options.node_count = 200;
  tree_options.tag_alphabet = 3;
  const DomTree tree = MakeRandomTree(tree_options, 21, db.tags());
  RandomClusteringPolicy policy(448, 5);
  auto doc = db.Import(tree, &policy);
  ASSERT_TRUE(doc.ok());
  auto mapping = MapOrderToNodeID(&db, *doc, tree);
  ASSERT_TRUE(mapping.ok());

  const TagId t1 = *db.tags()->Lookup("t1");
  LocationStep step{Axis::kDescendant, NodeTest::Name("t1", t1), {}};
  const auto expected = OracleStep(tree, tree.root(), step);

  CrossClusterCursor cursor(&db);
  ASSERT_TRUE(cursor.Start(Axis::kDescendant, doc->root).ok());
  std::size_t matches = 0;
  LogicalNode node;
  for (;;) {
    auto more = cursor.Next(&node);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (node.tag == t1) ++matches;
  }
  EXPECT_EQ(matches, expected.size());
}

}  // namespace
}  // namespace navpath
