// Property tests for the navigational primitives: for random documents,
// random clusterings, every axis and every context node, cross-cluster
// navigation over the paged store must produce exactly the nodes the DOM
// oracle produces, in the same order; and every axis, whose walks read
// each record through TreePage::ReadChecked under a link budget (the
// descendant axes scan each page's preorder image), must return and charge
// exactly what the unchecked link walks did.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "store/update.h"
#include "tests/test_util.h"
#include "xpath/oracle.h"

namespace navpath {
namespace {

struct NavCase {
  std::string policy;
  std::uint64_t seed;
  std::uint32_t nodes;
  /// Random DocumentUpdater inserts and deletes applied after the import.
  std::uint32_t updates = 0;
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
  if (info.param.updates > 0) {
    name += "_u" + std::to_string(info.param.updates);
  }
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// Builds every page's preorder image, then applies `count` random inserts
// and deletes (of subtrees under 8 elements) to the store in place through
// a DocumentUpdater and mirrors each in `tree`: the oracle then answers for
// the updated document, and an image the updates left stale would show.
void ApplyMirroredUpdates(Database* db, ImportedDocument* doc, DomTree* tree,
                          std::uint32_t count, std::uint64_t seed) {
  if (count == 0) return;
  for (PageId page = doc->first_page; page <= doc->last_page; ++page) {
    auto guard = db->buffer()->Fix(page);
    guard.status().AbortIfNotOk();
    db->MakeView(*guard).Index();
  }
  DocumentUpdater updater(db, doc);
  Random rng(seed);
  const TagId tags[] = {db->tags()->Intern("t0"), db->tags()->Intern("u")};
  auto small = [tree](DomNodeId node) {
    std::vector<DomNodeId> stack{node};
    for (std::size_t seen = 0; !stack.empty(); ++seen) {
      if (seen == 8) return false;
      const DomNodeId n = stack.back();
      stack.pop_back();
      for (DomNodeId c = tree->node(n).first_child; c != kNilDomNode;
           c = tree->node(c).next_sibling) {
        stack.push_back(c);
      }
    }
    return true;
  };
  for (std::uint32_t step = 0; step < count; ++step) {
    // A page split moves records: resolve NodeIDs by order key each time.
    auto ids = MapOrderToNodeID(db, *doc, *tree);
    ids.status().AbortIfNotOk();
    std::vector<DomNodeId> elements;
    for (const DomNodeId n : LiveDomNodes(*tree)) {
      if (tree->node(n).kind == DomNodeKind::kElement) elements.push_back(n);
    }
    const DomNodeId node = elements[rng.NextBounded(elements.size())];
    const NodeID id = ids->at(tree->node(node).order);
    if (node != tree->root() && rng.NextBool(0.4) && small(node)) {
      updater.DeleteSubtree(id).AbortIfNotOk();
      tree->RemoveSubtree(node);
      continue;
    }
    const TagId tag = tags[rng.NextBounded(2)];
    const char* text = rng.NextBool(0.5) ? "inserted text" : "";
    auto inserted = updater.InsertElement(id, kInvalidNodeID, tag, text);
    inserted.status().AbortIfNotOk();
    const DomNodeId fresh = tree->InsertChild(node, kNilDomNode, tag);
    tree->AppendText(fresh, text);
    tree->SetOrder(fresh, inserted->order);
  }
}

// Enumerates `axis` from `origin` across clusters with AxisCursor::Scan,
// following each crossing into the partner cluster as XStep and XAssembly
// do between them, and returns the order keys of the matches.
std::vector<std::uint64_t> ScanAcrossClusters(Database* db, Axis axis,
                                              NodeID origin,
                                              std::optional<TagId> tag) {
  struct Level {
    PageId page;
    AxisCursor cursor;
  };
  std::vector<Level> stack;
  std::vector<std::uint64_t> orders;
  auto push = [&](NodeID at) {
    auto guard = db->buffer()->Fix(at.page);
    guard.status().AbortIfNotOk();
    stack.push_back(
        Level{at.page, AxisCursor(db->MakeView(*guard), axis, at.slot)});
  };
  push(origin);
  while (!stack.empty()) {
    // Only the scanning level's page is pinned, and only while it scans.
    auto guard = db->buffer()->Fix(stack.back().page);
    guard.status().AbortIfNotOk();
    const ClusterView view = db->MakeView(*guard);
    stack.back().cursor.Rebind(view);
    NavEntry entry;
    if (!stack.back().cursor.Scan(tag, &entry)) {
      stack.pop_back();
    } else if (entry.crossing) {
      const NodeID partner = view.PartnerOf(entry.slot);
      guard->Release();
      push(partner);
    } else {
      orders.push_back(view.OrderOf(entry.slot));
    }
  }
  return orders;
}

class AxisNavigation : public ::testing::TestWithParam<NavCase> {};

TEST_P(AxisNavigation, MatchesOracleOnEveryNodeAndAxis) {
  const NavCase& param = GetParam();
  Database db(CaseOptions());
  DomTree tree = CaseTree(param, db.tags());
  auto doc = db.Import(tree, CasePolicy(param).get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ApplyMirroredUpdates(&db, &*doc, &tree, param.updates, param.seed);

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
  for (const DomNodeId ctx : LiveDomNodes(tree)) {
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
    // The descendant axes under a name test of each tag, and "any",
    // through Scan (as XStep enumerates) and through a filtered Next.
    const NodeID origin = mapping->at(tree.node(ctx).order);
    for (const Axis axis : {Axis::kDescendant, Axis::kDescendantOrSelf}) {
      for (TagId t = 0; t <= db.tags()->size(); ++t) {
        const bool any = t == db.tags()->size();
        const std::optional<TagId> tag =
            any ? std::nullopt : std::optional<TagId>(t);
        const LocationStep step{
            axis,
            any ? NodeTest::AnyNode() : NodeTest::Name(db.tags()->Name(t), t),
            {}};
        std::vector<std::uint64_t> expected_orders;
        for (const DomNodeId n : OracleStep(tree, ctx, step)) {
          expected_orders.push_back(tree.node(n).order);
        }
        const std::string what = std::string(AxisName(axis)) + "::" +
                                 (any ? "node()" : db.tags()->Name(t)) +
                                 " at node order " +
                                 std::to_string(tree.node(ctx).order);
        ASSERT_EQ(ScanAcrossClusters(&db, axis, origin, tag),
                  expected_orders)
            << "Scan of " << what;
        ASSERT_TRUE(cursor.Start(axis, origin).ok());
        std::vector<std::uint64_t> next_orders;
        LogicalNode node;
        for (;;) {
          auto more = cursor.Next(&node);
          ASSERT_TRUE(more.ok()) << more.status().ToString();
          if (!*more) break;
          if (any || node.tag == t) next_orders.push_back(node.order);
        }
        ASSERT_EQ(next_orders, expected_orders) << "Next of " << what;
      }
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
                      NavCase{"subtree", 18, 1200},
                      NavCase{"subtree", 19, 300, 40},
                      NavCase{"random", 20, 300, 40},
                      NavCase{"round-robin", 21, 300, 40}),
    CaseName);

// --- AxisCursor::Scan and Next against their references ------------------

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

// A view of pinned page `page` (bytes at `data`) that takes its preorder
// image from `db` and charges a clock and counters of its own.
struct ChargedView {
  SimClock clock;
  Metrics metrics;
  ClusterView view;
  ChargedView(const std::byte* data, Database* db, PageId page)
      : view(data, db->options().page_size, page, &clock,
             &db->options().cpu_costs, &metrics, db->nav_images(), page) {}
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

std::vector<ScanReturn> NextReturns(ChargedView* v, Axis axis,
                                    SlotId origin) {
  AxisCursor cursor(v->view, axis, origin);
  std::vector<ScanReturn> returns;
  NavEntry entry;
  while (cursor.Next(&entry)) {
    returns.push_back(v->Record(entry.slot, entry.crossing));
  }
  returns.push_back(v->Record(kInvalidSlot, false));
  return returns;
}

// The reference for every axis: the walks AxisCursor made before its
// checked reads and the preorder image, following the page's slot links
// through TreePage's unchecked accessors. Each walk charges one hop to arrive at each record it visits;
// the descendant walk also charges one per next-sibling probe, and
// climbing is free. A chain walk stops, uncharged, where it comes back to
// the origin; an up-border ends the sibling and upward walks as a
// crossing and the child walk without one. As Next (`scan` false) the
// reference returns every entry; as Scan it counts a node test per
// non-crossing entry and returns crossings and records whose tag is `tag`
// (every record when `tag` is empty). Each return charges what was counted
// since the last, in one ChargeNavigation, as the cursor does.
std::vector<ScanReturn> ReferenceWalk(ChargedView* v, Axis axis,
                                      SlotId origin, std::optional<TagId> tag,
                                      bool scan) {
  const ClusterView& view = v->view;
  const TreePage& page = view.page();
  std::vector<ScanReturn> returns;
  std::uint64_t hops = 0;
  std::uint64_t tests = 0;
  auto visit = [&](SlotId slot, bool crossing) {
    if (scan && !crossing) {
      ++tests;
      if (tag.has_value() && page.TagOf(slot) != *tag) return;
    }
    view.ChargeNavigation(hops, tests);
    hops = 0;
    tests = 0;
    returns.push_back(v->Record(slot, crossing));
  };
  auto self = [&] {
    ++hops;
    visit(origin, false);
  };
  auto chain = [&](SlotId s, bool forward) {
    const bool sibling = axis != Axis::kChild;
    while (s != kInvalidSlot && s != origin) {
      ++hops;
      const RecordKind k = page.KindOf(s);
      if (k == RecordKind::kBorderUp) {
        if (sibling) visit(s, true);
        return;
      }
      visit(s, k == RecordKind::kBorderDown);
      s = forward ? page.NextSiblingOf(s) : page.PrevSiblingOf(s);
    }
  };
  auto up = [&](bool single) {
    for (SlotId s = page.ParentOf(origin); s != kInvalidSlot;) {
      ++hops;
      if (page.KindOf(s) == RecordKind::kBorderUp) {
        visit(s, true);
        return;
      }
      visit(s, false);
      s = single ? kInvalidSlot : page.ParentOf(s);
    }
  };
  auto descendants = [&] {
    SlotId cur = origin;
    bool leaf = false;  // down-borders are leaves in this cluster
    for (;;) {
      SlotId next = leaf ? kInvalidSlot : page.FirstChildOf(cur);
      // Move to the next sibling, climbing when chains end. Chains of a
      // fragment root's children end at the up-border.
      while (next == kInvalidSlot && cur != origin) {
        const SlotId ns = page.NextSiblingOf(cur);
        ++hops;
        if (ns == kInvalidSlot || ns == origin ||
            page.KindOf(ns) == RecordKind::kBorderUp) {
          cur = page.ParentOf(cur);
        } else {
          next = ns;
        }
      }
      if (next == kInvalidSlot) return;
      ++hops;
      cur = next;
      leaf = page.KindOf(cur) == RecordKind::kBorderDown;
      visit(cur, leaf);
    }
  };
  const RecordKind k = page.KindOf(origin);
  const bool core = k == RecordKind::kCore;
  const bool up_border = k == RecordKind::kBorderUp;
  const bool attribute = k == RecordKind::kAttribute;
  switch (axis) {
    case Axis::kSelf:
      if (core || attribute) self();
      break;
    case Axis::kAttribute:
      if (!core) break;
      for (SlotId a = page.FirstAttrOf(origin); a != kInvalidSlot;
           a = page.NextSiblingOf(a)) {
        ++hops;
        visit(a, false);
      }
      break;
    case Axis::kChild:
      if (core || up_border) chain(page.FirstChildOf(origin), true);
      break;
    case Axis::kFollowingSibling:
      if (up_border) {
        chain(page.FirstChildOf(origin), true);
      } else if (!attribute) {
        chain(page.NextSiblingOf(origin), true);
      }
      break;
    case Axis::kPrecedingSibling:
      if (up_border) {
        chain(page.LastChildOf(origin), false);
      } else if (!attribute) {
        chain(page.PrevSiblingOf(origin), false);
      }
      break;
    case Axis::kParent:
    case Axis::kAncestor:
      if (!up_border) up(axis == Axis::kParent);
      break;
    case Axis::kAncestorOrSelf:
      if (core || attribute) self();
      if (!up_border) up(false);
      break;
    case Axis::kDescendant:
      if (core || up_border) descendants();
      break;
    case Axis::kDescendantOrSelf:
      if (core || attribute) self();
      if (core || up_border) descendants();
      break;
  }
  view.ChargeNavigation(hops, tests);
  returns.push_back(v->Record(kInvalidSlot, false));
  return returns;
}

class ScanDifferential : public ::testing::TestWithParam<NavCase> {};

TEST_P(ScanDifferential, ScanMatchesFilteredNextOnEveryOriginAxisAndTest) {
  Database db(CaseOptions());
  DomTree tree = CaseTree(GetParam(), db.tags());
  auto doc = db.Import(tree, CasePolicy(GetParam()).get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ApplyMirroredUpdates(&db, &*doc, &tree, GetParam().updates,
                       GetParam().seed);

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
  std::uint64_t crossings[10] = {};  // by axis
  for (PageId page = doc->first_page; page <= doc->last_page; ++page) {
    auto guard = db.buffer()->Fix(page);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    const std::byte* data = guard->data();
    const TreePage bytes = TreePage::ReadOnly(data, db.options().page_size);
    for (SlotId origin = 0; origin < bytes.slot_count(); ++origin) {
      if (!bytes.IsLive(origin)) continue;
      ++origins[static_cast<int>(bytes.KindOf(origin))];
      for (const Axis axis : kAxes) {
        const std::string where = "page " + std::to_string(page) +
                                  " origin " + std::to_string(origin) +
                                  " axis " + AxisName(axis);
        {
          ChargedView reference(data, &db, page);
          ChargedView next(data, &db, page);
          const std::vector<ScanReturn> got = NextReturns(&next, axis, origin);
          ASSERT_EQ(got, ReferenceWalk(&reference, axis, origin,
                                       std::nullopt, /*scan=*/false))
              << "Next: " << where;
          for (const ScanReturn& r : got) {
            crossings[static_cast<int>(axis)] += r.crossing;
          }
        }
        for (const std::optional<TagId>& tag : tests) {
          ChargedView reference(data, &db, page);
          ChargedView filtered(data, &db, page);
          ChargedView scan(data, &db, page);
          const std::vector<ScanReturn> got =
              Scanned(&scan, axis, origin, tag);
          const std::string what =
              where + " test " +
              (tag.has_value() ? db.tags()->Name(*tag) : "node()");
          ASSERT_EQ(got, ReferenceWalk(&reference, axis, origin, tag,
                                       /*scan=*/true))
              << what;
          ASSERT_EQ(got, FilteredNext(&filtered, costs, axis, origin,
                                      tag))
              << what;
          // Some entry was passed over, not returned.
          if (got.back().tests > got.size() - 1) ++skipping_scans;
        }
      }
    }
  }
  // Origins of every record kind, scans that skip, and crossings on every
  // axis that can cross were exercised.
  for (int kind = 0; kind < 4; ++kind) {
    EXPECT_GT(origins[kind], 0u) << "record kind " << kind;
  }
  EXPECT_GT(skipping_scans, 0u);
  for (const Axis axis : kAxes) {
    if (axis == Axis::kSelf || axis == Axis::kAttribute) continue;
    EXPECT_GT(crossings[static_cast<int>(axis)], 0u) << AxisName(axis);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ScanDifferential,
    ::testing::Values(NavCase{"subtree", 31, 400},
                      NavCase{"random", 32, 400},
                      NavCase{"round-robin", 33, 400},
                      NavCase{"subtree", 34, 300, 60},
                      NavCase{"random", 35, 300, 60},
                      NavCase{"round-robin", 36, 300, 60}),
    CaseName);

// XScan's seed loop takes a page's border records from its preorder image
// (NavIndex::IsBorder). On a well-formed page, before and after updates,
// the image places exactly the live border slots.
class ImageBorders : public ::testing::TestWithParam<NavCase> {};

TEST_P(ImageBorders, PlacedBordersAreTheLiveBorderSlots) {
  Database db(CaseOptions());
  DomTree tree = CaseTree(GetParam(), db.tags());
  auto doc = db.Import(tree, CasePolicy(GetParam()).get());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ApplyMirroredUpdates(&db, &*doc, &tree, GetParam().updates,
                       GetParam().seed);
  std::uint64_t borders = 0;
  for (PageId page = doc->first_page; page <= doc->last_page; ++page) {
    auto guard = db.buffer()->Fix(page);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    const TreePage bytes =
        TreePage::ReadOnly(guard->data(), db.options().page_size);
    const NavIndex& image = db.MakeView(*guard).Index();
    for (SlotId s = 0; s < bytes.slot_count(); ++s) {
      const bool live_border = bytes.IsLive(s) && bytes.IsBorder(s);
      ASSERT_EQ(image.IsBorder(s), live_border)
          << "page " << page << " slot " << s;
      borders += live_border;
    }
  }
  EXPECT_GT(borders, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ImageBorders,
    ::testing::Values(NavCase{"subtree", 41, 300, 200},
                      NavCase{"random", 42, 300, 200},
                      NavCase{"round-robin", 43, 300, 200},
                      NavCase{"random", 44, 500, 100},
                      NavCase{"subtree", 45, 500}),
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
