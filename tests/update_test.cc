// Tests for in-place updates: insertion (inline, fragment, page split),
// subtree deletion (cross-cluster, fragment collapse), order-key
// midpoints — validated against a DOM mirror via export equality and the
// store fsck after every mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "compiler/executor.h"
#include "store/export.h"
#include "store/scan_export.h"
#include "store/update.h"
#include "store/verify.h"
#include "txn/txn.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"
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

/// A store + DOM mirror kept in sync through updates.
struct Mirror {
  Database db;
  DomTree tree;
  ImportedDocument doc;
  DocumentUpdater updater;
  std::unordered_map<DomNodeId, NodeID> ids;  // mirror node -> store node

  explicit Mirror(const char* xml, DatabaseOptions options = SmallDb())
      : db(options), tree(db.tags()), updater(&db, &doc) {
    auto parsed = ParseXml(xml, db.tags());
    parsed.status().AbortIfNotOk();
    tree = std::move(*parsed);
    RandomClusteringPolicy policy(options.page_size - 64, 17);
    doc = *db.Import(tree, &policy);
    auto mapping = MapOrderToNodeID(&db, doc, tree);
    mapping.status().AbortIfNotOk();
    for (DomNodeId n = 0; n < tree.size(); ++n) {
      ids[n] = mapping->at(tree.node(n).order);
    }
  }

  DomNodeId Insert(DomNodeId parent, DomNodeId after, const char* tag,
                   const char* text) {
    const TagId tag_id = db.tags()->Intern(tag);
    const DomNodeId mirror_node = tree.InsertChild(parent, after, tag_id);
    tree.AppendText(mirror_node, text);
    auto result = updater.InsertElement(
        ids.at(parent),
        after == kNilDomNode ? kInvalidNodeID : ids.at(after), tag_id, text);
    result.status().AbortIfNotOk();
    tree.SetOrder(mirror_node, result->order);
    ids[mirror_node] = result->id;
    // A page split may have relocated records: re-resolve all NodeIDs by
    // their (stable) order keys.
    Refresh();
    return mirror_node;
  }

  void Delete(DomNodeId node) {
    updater.DeleteSubtree(ids.at(node)).AbortIfNotOk();
    tree.RemoveSubtree(node);
  }

  /// Re-resolves every mirror node's NodeID via order keys (NodeIDs are
  /// physical and move on page splits).
  void Refresh() {
    std::unordered_map<std::uint64_t, NodeID> by_order;
    CrossClusterCursor cursor(&db);
    std::vector<LogicalNode> queue{LogicalNode{doc.root, 0, doc.root_order}};
    while (!queue.empty()) {
      const LogicalNode n = queue.back();
      queue.pop_back();
      by_order[n.order] = n.id;
      cursor.Start(Axis::kChild, n.id).AbortIfNotOk();
      LogicalNode child;
      for (;;) {
        auto more = cursor.Next(&child);
        more.status().AbortIfNotOk();
        if (!*more) break;
        queue.push_back(child);
      }
    }
    for (auto& [mirror_node, id] : ids) {
      auto it = by_order.find(tree.node(mirror_node).order);
      NAVPATH_CHECK(it != by_order.end());
      id = it->second;
    }
  }

  void CheckConsistent() {
    auto report = VerifyStore(&db, doc);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    auto exported = ExportDocument(&db, doc);
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    EXPECT_EQ(*exported, SerializeXml(tree));
    auto scanned = ScanExportDocument(&db, doc);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_EQ(*scanned, *exported);
  }
};

TEST(UpdateTest, InsertFirstMiddleLast) {
  Mirror m("<r><a/><b/></r>");
  const DomNodeId a = m.tree.node(m.tree.root()).first_child;
  const DomNodeId b = m.tree.node(a).next_sibling;

  m.Insert(m.tree.root(), kNilDomNode, "first", "f");
  m.CheckConsistent();
  m.Insert(m.tree.root(), a, "middle", "m");
  m.CheckConsistent();
  m.Insert(m.tree.root(), b, "last", "");
  m.CheckConsistent();
  EXPECT_EQ(SerializeXml(m.tree),
            "<r><first>f</first><a/><middle>m</middle><b/><last/></r>");
}

TEST(UpdateTest, InsertWithAttributes) {
  Mirror m("<r><a/></r>");
  const DomNodeId a = m.tree.node(m.tree.root()).first_child;
  const TagId tag = m.db.tags()->Intern("item");
  const TagId id_name = m.db.tags()->Intern("id");
  const TagId f_name = m.db.tags()->Intern("featured");
  auto result = m.updater.InsertElement(
      m.ids.at(a), kInvalidNodeID, tag, "payload",
      {{id_name, "item0"}, {f_name, "yes"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Mirror it.
  const DomNodeId mn = m.tree.InsertChild(a, kNilDomNode, tag);
  m.tree.AppendText(mn, "payload");
  m.tree.AddAttribute(mn, id_name, "item0");
  m.tree.AddAttribute(mn, f_name, "yes");
  m.tree.SetOrder(mn, result->order);
  m.ids[mn] = result->id;
  m.CheckConsistent();
  EXPECT_EQ(SerializeXml(m.tree),
            "<r><a><item id=\"item0\" featured=\"yes\">payload</item>"
            "</a></r>");

  // Attribute queries see it through every plan.
  auto path = ParsePath("//item/@id", m.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    auto r = ExecutePath(&m.db, m.doc, *path, exec);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->count, 1u) << PlanKindName(kind);
  }
}

TEST(UpdateTest, DeleteElementWithAttributes) {
  Mirror m("<r><a id=\"1\" x=\"2\"><b y=\"3\"/></a><c/></r>");
  const DomNodeId a = m.tree.node(m.tree.root()).first_child;
  EXPECT_EQ(m.doc.attribute_records, 3u);
  m.Delete(a);
  m.CheckConsistent();
  EXPECT_EQ(m.doc.attribute_records, 0u);
  EXPECT_EQ(SerializeXml(m.tree), "<r><c/></r>");
}

TEST(UpdateTest, InsertIntoEmptyElement) {
  Mirror m("<r><empty/></r>");
  const DomNodeId empty = m.tree.node(m.tree.root()).first_child;
  m.Insert(empty, kNilDomNode, "child", "x");
  m.CheckConsistent();
}

TEST(UpdateTest, InsertedNodesAreQueryable) {
  Mirror m("<r><a/></r>");
  const DomNodeId a = m.tree.node(m.tree.root()).first_child;
  m.Insert(a, kNilDomNode, "q", "1");
  m.Insert(m.tree.root(), a, "q", "2");
  m.CheckConsistent();

  // Order keys must order the new nodes correctly for navigation.
  CrossClusterCursor cursor(&m.db);
  ASSERT_TRUE(cursor.Start(Axis::kDescendant, m.doc.root).ok());
  std::vector<std::uint64_t> orders;
  LogicalNode node;
  for (;;) {
    auto more = cursor.Next(&node);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    orders.push_back(node.order);
  }
  // Document order: a, q1 (inside a), q2 (after a).
  ASSERT_EQ(orders.size(), 3u);
  EXPECT_LT(orders[0], orders[1]);
  EXPECT_LT(orders[1], orders[2]);
}

TEST(UpdateTest, ManyInsertsForceFragmentsAndSplits) {
  Mirror m("<r><hub/></r>");
  const DomNodeId hub = m.tree.node(m.tree.root()).first_child;
  DomNodeId last = kNilDomNode;
  for (int i = 0; i < 120; ++i) {
    last = m.Insert(hub, last, "n",
                    "some reasonably long text payload for node");
  }
  m.CheckConsistent();
  EXPECT_GT(m.doc.border_pairs, 0u);  // inline space ran out long ago
}

TEST(UpdateTest, DeleteLeafMiddleAndSubtree) {
  Mirror m("<r><a><x/><y><z/></y></a><b/><c><d/></c></r>");
  const DomNodeId a = m.tree.node(m.tree.root()).first_child;
  const DomNodeId b = m.tree.node(a).next_sibling;
  const DomNodeId c = m.tree.node(b).next_sibling;
  const DomNodeId y = m.tree.node(m.tree.node(a).first_child).next_sibling;

  m.Delete(b);  // middle leaf
  m.CheckConsistent();
  m.Delete(y);  // nested subtree
  m.CheckConsistent();
  m.Delete(c);  // subtree with child
  m.CheckConsistent();
  EXPECT_EQ(SerializeXml(m.tree), "<r><a><x/></a></r>");
}

TEST(UpdateTest, DeleteRootRejected) {
  Mirror m("<r><a/></r>");
  EXPECT_FALSE(m.updater.DeleteSubtree(m.doc.root).ok());
}

TEST(UpdateTest, DeleteInvalidNodeRejected) {
  Mirror m("<r><a/></r>");
  EXPECT_FALSE(m.updater.DeleteSubtree(NodeID{m.doc.root.page, 999}).ok());
}

TEST(UpdateTest, OrderKeyGapsRedistributeUnderAdversarialInserts) {
  // Repeatedly inserting as first child halves the available key interval
  // each time — the adversarial pattern for midpoint allocation. Gap
  // redistribution must respread the local run's keys when an interval
  // pinches shut, so every insert succeeds (the 64-bit key space as a
  // whole is nowhere near full). The DOM mirror can't follow along here —
  // redistribution rewrites order keys it never sees — so the oracle is
  // the export itself.
  Database db(SmallDb());
  auto parsed = ParseXml("<r><a/><b/></r>", db.tags());
  ASSERT_TRUE(parsed.ok());
  RandomClusteringPolicy policy(SmallDb().page_size - 64, 17);
  auto imported = db.Import(*parsed, &policy);
  ASSERT_TRUE(imported.ok());
  ImportedDocument doc = *imported;
  DocumentUpdater updater(&db, &doc);
  const TagId k = db.tags()->Intern("k");
  std::string inserted;
  for (int i = 0; i < 64; ++i) {
    auto result = updater.InsertElement(doc.root, kInvalidNodeID, k, "");
    ASSERT_TRUE(result.ok()) << "insert " << i << ": "
                             << result.status().ToString();
    inserted = "<k/>" + inserted;
  }
  auto report = VerifyStore(&db, doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto exported = ExportDocument(&db, doc);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  EXPECT_EQ(*exported, "<r>" + inserted + "<a/><b/></r>");
  auto scanned = ScanExportDocument(&db, doc);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(*scanned, *exported);

  // Redistribution must keep the merged descendant scan strictly
  // increasing in order keys (no collapsed or reordered gaps).
  CrossClusterCursor cursor(&db);
  ASSERT_TRUE(cursor.Start(Axis::kDescendant, doc.root).ok());
  std::vector<std::uint64_t> orders;
  LogicalNode node;
  for (;;) {
    auto more = cursor.Next(&node);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    orders.push_back(node.order);
  }
  ASSERT_EQ(orders.size(), 66u);  // 64 inserted + a + b
  EXPECT_TRUE(std::is_sorted(orders.begin(), orders.end()));
  EXPECT_EQ(std::adjacent_find(orders.begin(), orders.end()), orders.end());
}

TEST(UpdateTest, MergedScansSeeInsertedNodesInDocumentOrder) {
  Mirror m("<r><a/><b/><c/></r>");
  const DomNodeId a = m.tree.node(m.tree.root()).first_child;
  const DomNodeId b = m.tree.node(a).next_sibling;
  // Interleave fresh nodes between the imported ones (first, middle,
  // nested) so redistributed and midpoint keys mix with import-time keys.
  m.Insert(m.tree.root(), kNilDomNode, "k", "front");
  const DomNodeId mid = m.Insert(m.tree.root(), a, "k", "mid");
  m.Insert(mid, kNilDomNode, "k", "nested");
  m.Insert(b, kNilDomNode, "k", "under-b");
  m.CheckConsistent();

  // The descendant axis merges per-cluster scans by order key; the
  // sequence it yields over old and new nodes must be strictly
  // increasing — the document order the mirror serialization encodes.
  CrossClusterCursor cursor(&m.db);
  ASSERT_TRUE(cursor.Start(Axis::kDescendant, m.doc.root).ok());
  std::vector<std::uint64_t> orders;
  LogicalNode node;
  for (;;) {
    auto more = cursor.Next(&node);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    orders.push_back(node.order);
  }
  ASSERT_EQ(orders.size(), 7u);
  EXPECT_TRUE(std::is_sorted(orders.begin(), orders.end()));
  EXPECT_EQ(std::adjacent_find(orders.begin(), orders.end()), orders.end());

  // Every plan shape agrees on the inserted nodes, including the
  // sweep-based XScan whose page visits ignore insertion order.
  auto path = ParsePath("//k", m.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    auto result = ExecutePath(&m.db, m.doc, *path, exec);
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    EXPECT_EQ(result->count, 4u) << PlanKindName(kind);
  }
}

class RandomizedUpdates : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedUpdates, MutationsStayConsistent) {
  Mirror m(
      "<r><a><b>t1</b><c/></a><d><e><f>t2</f></e></d><g/>"
      "<h><i/><j>t3</j></h></r>");
  Random rng(GetParam());
  std::vector<DomNodeId> live;
  for (DomNodeId n = 0; n < m.tree.size(); ++n) live.push_back(n);

  const char* tags[] = {"u", "v", "w"};
  for (int step = 0; step < 120; ++step) {
    if (rng.NextBool(0.6) || live.size() < 3) {
      // Insert under a random live parent, after a random child (or first).
      const DomNodeId parent = live[rng.NextBounded(live.size())];
      std::vector<DomNodeId> children;
      for (DomNodeId c = m.tree.node(parent).first_child; c != kNilDomNode;
           c = m.tree.node(c).next_sibling) {
        children.push_back(c);
      }
      DomNodeId after = kNilDomNode;
      if (!children.empty() && rng.NextBool(0.7)) {
        after = children[rng.NextBounded(children.size())];
      }
      const char* text = rng.NextBool(0.5) ? "payload text" : "";
      const char* tag = tags[rng.NextBounded(3)];
      const DomNodeId fresh = m.Insert(parent, after, tag, text);
      live.push_back(fresh);
    } else {
      // Delete a random non-root node.
      const std::size_t pick = 1 + rng.NextBounded(live.size() - 1);
      const DomNodeId victim = live[pick];
      // Collect the subtree to prune the live list.
      std::vector<DomNodeId> doomed{victim};
      for (std::size_t i = 0; i < doomed.size(); ++i) {
        for (DomNodeId c = m.tree.node(doomed[i]).first_child;
             c != kNilDomNode; c = m.tree.node(c).next_sibling) {
          doomed.push_back(c);
        }
      }
      m.Delete(victim);
      for (const DomNodeId d : doomed) {
        live.erase(std::find(live.begin(), live.end(), d));
        m.ids.erase(d);
      }
    }
    if (step % 10 == 9) m.CheckConsistent();
    if (step % 20 == 19) {
      // Queries over the mutated store must match the mutated mirror.
      for (const char* q : {"//u//v", "//w/..", "//t0"}) {
        auto path = ParsePath(q, m.db.tags());
        ASSERT_TRUE(path.ok());
        const auto expected =
            OracleEvaluate(m.tree, *path, m.tree.root()).size();
        for (const PlanKind kind :
             {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
          ExecuteOptions exec;
          exec.plan.kind = kind;
          auto result = ExecutePath(&m.db, m.doc, *path, exec);
          ASSERT_TRUE(result.ok()) << PlanKindName(kind);
          ASSERT_EQ(result->count, expected)
              << q << " with " << PlanKindName(kind) << " at step " << step;
        }
      }
    }
  }
  m.CheckConsistent();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedUpdates,
                         ::testing::Values(2024u, 7u, 99u, 12345u, 5150u));

TEST(UpdateTest, QueriesSeeUpdates) {
  Mirror m("<site><regions><africa/></regions></site>");
  const DomNodeId regions = m.tree.node(m.tree.root()).first_child;
  const DomNodeId africa = m.tree.node(regions).first_child;
  for (int i = 0; i < 5; ++i) {
    m.Insert(africa, kNilDomNode, "item", "thing");
  }
  m.CheckConsistent();
  // All three plans see the inserted items.
  auto path = ParsePath("/site/regions//item", m.db.tags());
  ASSERT_TRUE(path.ok());
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    ExecuteOptions exec;
    exec.plan.kind = kind;
    auto result = ExecutePath(&m.db, m.doc, *path, exec);
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    EXPECT_EQ(result->count, 5u) << PlanKindName(kind);
  }
}

// Runs //tag for every interned tag under all three plan kinds, navigating
// (no summary), and checks each count against the oracle on `tree`.
void ExpectEveryTagCount(Database* db, const ImportedDocument& doc,
                         const DomTree& tree, const std::string& when,
                         const PageTranslator* translator = nullptr) {
  for (TagId t = 0; t < db->tags()->size(); ++t) {
    const std::string q = "//" + db->tags()->Name(t);
    auto query = ParseQuery(q, db->tags());
    ASSERT_TRUE(query.ok()) << q;
    const std::uint64_t expected = OracleCount(tree, *query, tree.root());
    for (const PlanKind kind :
         {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
      ExecuteOptions exec;
      exec.plan.kind = kind;
      exec.plan.use_summary = false;
      exec.plan.translator = translator;
      auto result = ExecuteQuery(db, doc, *query, exec);
      ASSERT_TRUE(result.ok()) << q << " " << result.status().ToString();
      EXPECT_EQ(result->count, expected)
          << q << " with " << PlanKindName(kind) << " " << when;
    }
  }
}

// The descendant axes read each page's cached preorder image: queries
// before and after every in-place update, and after every page was
// evicted and fixed again, count what the updated DOM holds.
TEST(UpdateTest, DescendantQueriesSeeEveryUpdateAndEviction) {
  Mirror m(
      "<r><a><b>t1</b><c/></a><d><e><f>t2</f></e></d><g/>"
      "<h><i/><j>t3</j></h></r>");
  Random rng(77);
  const char* tags[] = {"b", "f", "u"};
  ExpectEveryTagCount(&m.db, m.doc, m.tree, "after import");
  for (int step = 0; step < 24; ++step) {
    std::vector<DomNodeId> live;
    for (const auto& [node, id] : m.ids) {
      if (m.tree.node(node).kind == DomNodeKind::kElement) {
        live.push_back(node);
      }
    }
    std::sort(live.begin(), live.end());
    const DomNodeId node = live[rng.NextBounded(live.size())];
    if (node != m.tree.root() && step % 3 == 2) {
      std::vector<DomNodeId> doomed{node};
      for (std::size_t i = 0; i < doomed.size(); ++i) {
        for (DomNodeId c = m.tree.node(doomed[i]).first_child;
             c != kNilDomNode; c = m.tree.node(c).next_sibling) {
          doomed.push_back(c);
        }
      }
      m.Delete(node);
      for (const DomNodeId d : doomed) m.ids.erase(d);
    } else {
      m.Insert(node, kNilDomNode, tags[rng.NextBounded(3)], "x");
    }
    ExpectEveryTagCount(&m.db, m.doc, m.tree,
                        "after update " + std::to_string(step));
  }
  const std::uint64_t builds = m.db.nav_images()->builds();
  ASSERT_TRUE(m.db.ResetMeasurement().ok());
  ExpectEveryTagCount(&m.db, m.doc, m.tree, "after eviction");
  EXPECT_EQ(m.db.nav_images()->builds(), builds);
}

// The same under MVCC: every commit, and a shadow page id that was
// reclaimed (Discard) and then recycled (AdoptPage) with new content.
TEST(UpdateTest, DescendantQueriesSeeCommitsAndRecycledShadowIds) {
  const char* xml = "<r><a><b/></a><c><b/><d/></c></r>";
  Database db(SmallDb());
  auto parsed = ParseXml(xml, db.tags());
  ASSERT_TRUE(parsed.ok());
  DomTree tree = std::move(*parsed);
  RandomClusteringPolicy policy(SmallDb().page_size - 64, 17);
  ImportedDocument doc = *db.Import(tree, &policy);
  TxnManager mgr(&db, &doc);
  auto check = [&](const std::string& when) {
    auto snap = mgr.OpenSnapshot();
    ExpectEveryTagCount(&db, snap->doc(), tree, when, snap.get());
  };
  auto commit_insert = [&](const char* name) {
    const TagId tag = db.tags()->Intern(name);
    auto writer = mgr.BeginWrite();
    ASSERT_TRUE(writer->updater()
                    ->InsertElement(writer->doc()->root, kInvalidNodeID, tag,
                                    "")
                    .ok());
    ASSERT_TRUE(writer->Commit().ok());
    tree.InsertChild(tree.root(), kNilDomNode, tag);
  };
  check("at genesis");
  auto pin = mgr.OpenSnapshot();
  commit_insert("b");
  check("after the first commit");
  commit_insert("u");  // retires the first commit's shadow of the root page
  check("after the second commit");
  pin.reset();  // the retired shadow is reclaimed: its frame is discarded
  ASSERT_GT(mgr.versions_reclaimed(), 0u);
  const std::size_t pages = db.disk()->num_pages();
  commit_insert("b");  // the reclaimed id is adopted with new content
  EXPECT_EQ(db.disk()->num_pages(), pages);
  check("after a commit that recycled a shadow id");
}

}  // namespace
}  // namespace navpath
