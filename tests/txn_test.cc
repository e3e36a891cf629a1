// MVCC transaction subsystem tests: copy-on-write snapshot isolation,
// writer-sees-own-writes, first-committer-wins conflicts (Aborted),
// read-only snapshots (by type), version reclamation
// (including the never-free-a-pinned-frame rule), persistence of the
// versioned root, mixed read/write workloads through the executor, and a
// seeded randomized reader/writer interleaving stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "compiler/workload_executor.h"
#include "store/export.h"
#include "store/persistence.h"
#include "tests/test_util.h"
#include "txn/txn.h"
#include "xml/parser.h"

namespace navpath {
namespace {

DatabaseOptions SmallDb() {
  DatabaseOptions options;
  options.page_size = 512;
  options.buffer_pages = 64;
  return options;
}

/// A database + imported document + transaction manager, the fixture
/// every MVCC test starts from.
struct TxnFixture {
  Database db;
  ImportedDocument doc;
  std::unique_ptr<TxnManager> mgr;

  explicit TxnFixture(const char* xml, DatabaseOptions options = SmallDb())
      : db(options) {
    auto parsed = ParseXml(xml, db.tags());
    parsed.status().AbortIfNotOk();
    DomTree tree = std::move(*parsed);
    RandomClusteringPolicy policy(options.page_size - 64, 17);
    doc = *db.Import(tree, &policy);
    mgr = std::make_unique<TxnManager>(&db, &doc);
  }

  std::string Export(const Snapshot& snap) {
    ExportOptions options;
    options.translator = &snap;
    auto exported = ExportSubtree(&db, snap.doc().root, options);
    exported.status().AbortIfNotOk();
    return *exported;
  }

  std::string ExportCurrent() {
    auto snap = mgr->OpenSnapshot();
    return Export(*snap);
  }

  /// Commits one insert under `parent` (the current version's root when
  /// invalid) and returns the commit status.
  Status CommitInsert(const char* tag, const char* text,
                      NodeID parent = kInvalidNodeID) {
    auto writer = mgr->BeginWrite();
    if (parent == kInvalidNodeID) parent = writer->doc()->root;
    auto inserted = writer->updater()->InsertElement(
        parent, kInvalidNodeID, db.tags()->Intern(tag), text);
    if (!inserted.ok()) return inserted.status();
    return writer->Commit();
  }
};

TEST(TxnTest, SnapshotIsolationAcrossCommits) {
  TxnFixture f("<r><a>one</a><b/></r>");
  const std::string v0 = f.ExportCurrent();
  auto before = f.mgr->OpenSnapshot();
  EXPECT_EQ(before->seq(), 0u);

  ASSERT_TRUE(f.CommitInsert("fresh", "payload").ok());
  EXPECT_EQ(f.mgr->current_seq(), 1u);
  EXPECT_EQ(f.mgr->commits(), 1u);

  // The pre-commit snapshot still serves the version it pinned; a new
  // snapshot sees the commit.
  EXPECT_EQ(f.Export(*before), v0);
  auto after = f.mgr->OpenSnapshot();
  EXPECT_EQ(after->seq(), 1u);
  const std::string v1 = f.Export(*after);
  EXPECT_NE(v1, v0);
  EXPECT_NE(v1.find("<fresh>payload</fresh>"), std::string::npos);

  // Two commits later the old snapshot is still byte-stable.
  ASSERT_TRUE(f.CommitInsert("more", "").ok());
  EXPECT_EQ(f.Export(*before), v0);
  EXPECT_EQ(f.Export(*after), v1);
}

TEST(TxnTest, WriterSeesOwnWritesAndAbortDiscardsThem) {
  TxnFixture f("<r><a/></r>");
  const std::string v0 = f.ExportCurrent();

  auto writer = f.mgr->BeginWrite();
  auto inserted = writer->updater()->InsertElement(
      writer->doc()->root, kInvalidNodeID, f.db.tags()->Intern("mine"), "x");
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  // The writer's own translator sees the uncommitted insert; the
  // published version does not (the touched page was copied, not
  // mutated in place).
  ExportOptions through_writer;
  through_writer.translator = writer.get();
  auto own = ExportSubtree(&f.db, writer->doc()->root, through_writer);
  ASSERT_TRUE(own.ok());
  EXPECT_NE(own->find("<mine>x</mine>"), std::string::npos);
  EXPECT_EQ(f.ExportCurrent(), v0);

  ASSERT_TRUE(writer->Abort().ok());
  EXPECT_EQ(f.mgr->aborts(), 1u);
  EXPECT_EQ(f.mgr->commits(), 0u);
  EXPECT_EQ(f.mgr->current_seq(), 0u);
  EXPECT_EQ(f.ExportCurrent(), v0);
}

// A snapshot is read-only by type: it is no WritePageIO, so it cannot be
// handed to a DocumentUpdater.
static_assert(!std::is_convertible_v<Snapshot*, WritePageIO*>,
              "a read-only snapshot must not be usable as write page I/O");

TEST(TxnTest, FirstCommitterWinsConflictAborts) {
  TxnFixture f("<r><a/></r>");
  auto first = f.mgr->BeginWrite();
  auto second = f.mgr->BeginWrite();
  ASSERT_TRUE(first->updater()
                  ->InsertElement(first->doc()->root, kInvalidNodeID,
                                  f.db.tags()->Intern("one"), "")
                  .ok());
  ASSERT_TRUE(second->updater()
                  ->InsertElement(second->doc()->root, kInvalidNodeID,
                                  f.db.tags()->Intern("two"), "")
                  .ok());

  ASSERT_TRUE(first->Commit().ok());
  const Status lost = second->Commit();
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(lost.IsAborted()) << lost.ToString();
  EXPECT_FALSE(second->open());
  EXPECT_EQ(second->commit_seq(), 0u);
  EXPECT_EQ(f.mgr->commits(), 1u);
  EXPECT_EQ(f.mgr->aborts(), 1u);

  // A finished transaction cannot commit again.
  EXPECT_TRUE(second->Commit().IsInvalidArgument());

  // Only the winner's insert is visible.
  const std::string current = f.ExportCurrent();
  EXPECT_NE(current.find("<one/>"), std::string::npos);
  EXPECT_EQ(current.find("<two/>"), std::string::npos);
}

TEST(TxnTest, AbortedShadowPagesAreRecycled) {
  TxnFixture f("<r><a/></r>");
  {
    auto writer = f.mgr->BeginWrite();
    ASSERT_TRUE(writer->updater()
                    ->InsertElement(writer->doc()->root, kInvalidNodeID,
                                    f.db.tags()->Intern("x"), "")
                    .ok());
    ASSERT_TRUE(writer->Abort().ok());
  }
  const std::size_t pages_after_abort = f.db.disk()->num_pages();
  // The next writer's COW copies reuse the freed shadow ids instead of
  // growing the file.
  ASSERT_TRUE(f.CommitInsert("y", "").ok());
  EXPECT_EQ(f.db.disk()->num_pages(), pages_after_abort);
}

TEST(TxnTest, ReclamationWaitsForTheLastReader) {
  TxnFixture f("<r><a/></r>");
  auto pin = f.mgr->OpenSnapshot();  // seq 0, pins everything after it

  // Two commits shadowing the same root page: the second retires the
  // first commit's shadow.
  ASSERT_TRUE(f.CommitInsert("x", "").ok());
  ASSERT_TRUE(f.CommitInsert("y", "").ok());
  EXPECT_GT(f.mgr->versions_retired(), 0u);
  EXPECT_GT(f.mgr->retired_pending(), 0u);
  EXPECT_EQ(f.mgr->versions_reclaimed(), 0u);

  // Dropping the old reader drains the epoch and frees the retired
  // shadow pages.
  pin.reset();
  EXPECT_EQ(f.mgr->retired_pending(), 0u);
  EXPECT_EQ(f.mgr->versions_reclaimed(), f.mgr->versions_retired());
}

TEST(TxnTest, ReclamationNeverFreesAPinnedFrame) {
  TxnFixture f("<r><a/></r>");
  auto pin = f.mgr->OpenSnapshot();
  ASSERT_TRUE(f.CommitInsert("x", "").ok());

  // Find the shadow page the first commit mapped the root page to, and
  // pin its frame like an in-flight reader would.
  const PageId shadow =
      f.mgr->current_version()->to_physical.begin()->second;
  auto guard = f.db.buffer()->Fix(shadow);
  ASSERT_TRUE(guard.ok());

  // The second commit retires `shadow`; draining the old reader makes it
  // reclaimable — but the frame is pinned, so it must be skipped, not
  // freed under the pin.
  ASSERT_TRUE(f.CommitInsert("y", "").ok());
  pin.reset();
  EXPECT_GT(f.mgr->retired_pending(), 0u);

  // Regression: the unpin itself must drain the stalled retiree. Before
  // the buffer-manager unpin listener, the freed page sat in the retired
  // list until some unrelated snapshot open/close happened to run
  // TryReclaim — a quiescent store leaked the shadow indefinitely.
  guard->Release();
  EXPECT_EQ(f.mgr->retired_pending(), 0u);
  EXPECT_EQ(f.mgr->versions_reclaimed(), f.mgr->versions_retired());
}

TEST(TxnTest, UnpinAfterLastSnapshotReleaseDrainsRetirees) {
  // The stall in its purest form: the pinned frame is released *after*
  // the last snapshot is gone, so no future snapshot event exists to
  // nudge reclamation — the unpin is the only remaining trigger.
  TxnFixture f("<r><a/></r>");
  ASSERT_TRUE(f.CommitInsert("x", "").ok());
  const PageId shadow =
      f.mgr->current_version()->to_physical.begin()->second;
  auto guard = f.db.buffer()->Fix(shadow);
  ASSERT_TRUE(guard.ok());

  {
    auto pin = f.mgr->OpenSnapshot();
    ASSERT_TRUE(f.CommitInsert("y", "").ok());
  }  // last snapshot released here, with the frame still pinned
  EXPECT_GT(f.mgr->retired_pending(), 0u);

  guard->Release();
  EXPECT_EQ(f.mgr->retired_pending(), 0u);
  EXPECT_EQ(f.mgr->versions_reclaimed(), f.mgr->versions_retired());
}

TEST(TxnTest, TranslatorsRoundTripEveryDocumentPage) {
  // XSchedule maps the physical page of a completion or an install back to
  // its cluster with ToLogical, which finds the cluster only if
  // ToLogical(ToPhysical(L)) == L for every logical page L. Check it after
  // shadow pages were retired, reclaimed and handed out again, through a
  // snapshot and through a writer whose write set shadows part of the
  // document.
  TxnFixture f("<r><a/><b/><c/><d/></r>");
  const auto expect_round_trip = [](const PageTranslator& t,
                                    const ImportedDocument& doc,
                                    const char* who) {
    for (PageId page = doc.first_page; page <= doc.last_page; ++page) {
      if (t.IsShadow(page)) continue;
      EXPECT_EQ(t.ToLogical(t.ToPhysical(page)), page)
          << who << ": logical page " << page;
    }
  };
  auto pin = f.mgr->OpenSnapshot();  // keeps every replaced shadow retired
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.CommitInsert("x", "payload").ok());
  }
  EXPECT_GT(f.mgr->retired_pending(), 0u);
  pin.reset();
  EXPECT_GT(f.mgr->versions_reclaimed(), 0u);
  const std::vector<PageId> reclaimed = f.mgr->ExportState().free_pages;
  ASSERT_FALSE(reclaimed.empty());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.CommitInsert("y", "payload").ok());
  }
  bool recycled = false;
  for (const auto& [logical, physical] :
       f.mgr->current_version()->to_physical) {
    (void)logical;
    recycled |= std::find(reclaimed.begin(), reclaimed.end(), physical) !=
                reclaimed.end();
  }
  EXPECT_TRUE(recycled) << "no reclaimed shadow id was handed out again";

  auto snap = f.mgr->OpenSnapshot();
  expect_round_trip(*snap, snap->doc(), "snapshot");

  auto writer = f.mgr->BeginWrite();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(writer->updater()
                    ->InsertElement(writer->doc()->root, kInvalidNodeID,
                                    f.db.tags()->Intern("z"), "payload")
                    .ok());
  }
  ASSERT_TRUE(
      writer->IsShadow(writer->ToPhysical(writer->doc()->root.page)));
  expect_round_trip(*writer, *writer->doc(), "writer");
  ASSERT_TRUE(writer->Abort().ok());
}

TEST(TxnTest, VersionedRootSurvivesSaveAndLoad) {
  TxnFixture f("<site><open_auctions/><people/></site>");
  ASSERT_TRUE(f.CommitInsert("bid", "99").ok());
  ASSERT_TRUE(f.CommitInsert("bid", "101").ok());
  const std::string expected = f.ExportCurrent();
  ASSERT_NE(expected.find("<bid>99</bid>"), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/navpath_txn_roundtrip.db";
  const VersionedRootState state = f.mgr->ExportState();
  EXPECT_EQ(state.seq, 2u);
  ASSERT_TRUE(SaveDatabase(&f.db, f.mgr->current_doc(), path, &state).ok());

  auto loaded = LoadDatabase(path, SmallDb());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_txn_state);
  TxnManager restored(loaded->db.get(), &loaded->doc);
  ASSERT_TRUE(restored.RestoreState(loaded->txn_state).ok());
  EXPECT_EQ(restored.current_seq(), 2u);

  TxnFixture* reopened = nullptr;
  (void)reopened;
  auto snap = restored.OpenSnapshot();
  ExportOptions through;
  through.translator = snap.get();
  auto exported =
      ExportSubtree(loaded->db.get(), snap->doc().root, through);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(*exported, expected);

  // The restored chain keeps versioning: another commit and an old
  // snapshot behave exactly as before the round trip.
  auto pre = restored.OpenSnapshot();
  auto writer = restored.BeginWrite();
  ASSERT_TRUE(writer->updater()
                  ->InsertElement(writer->doc()->root, kInvalidNodeID,
                                  loaded->db->tags()->Intern("bid"), "7")
                  .ok());
  ASSERT_TRUE(writer->Commit().ok());
  ExportOptions through_pre;
  through_pre.translator = pre.get();
  auto unchanged =
      ExportSubtree(loaded->db.get(), pre->doc().root, through_pre);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, expected);
  std::remove(path.c_str());
}

// --- Mixed read/write workloads through the executor --------------------

TEST(TxnTest, AddWriteValidation) {
  TxnFixture f("<r><a/></r>");
  {
    WorkloadExecutor executor(&f.db, f.doc, {});
    EXPECT_TRUE(executor.AddWrite({WriteOp{f.doc.root}}, 0)
                    .IsInvalidArgument());  // no TxnManager configured
  }
  WorkloadOptions options;
  options.txn = f.mgr.get();
  WorkloadExecutor executor(&f.db, f.doc, options);
  EXPECT_TRUE(executor.AddWrite({}, 0).IsInvalidArgument());  // empty ops

  WorkloadOptions no_writers = options;
  no_writers.max_writers = 0;
  EXPECT_TRUE(ValidateWorkloadOptions(no_writers).IsInvalidArgument());

  WorkloadOptions empty_batch = options;
  empty_batch.writer_batch = 0;
  EXPECT_TRUE(ValidateWorkloadOptions(empty_batch).IsInvalidArgument());
}

TEST(TxnTest, MixedWorkloadZeroWritersIsByteIdentical) {
  DatabaseOptions db_options = SmallDb();
  db_options.buffer_pages = 32;
  TxnFixture f(
      "<site><regions><item>a</item><item>b</item><item>c</item></regions>"
      "<people><person>p</person><person>q</person></people></site>",
      db_options);

  const char* queries[] = {"//item", "/site/people/person", "//regions"};
  auto run = [&](TxnManager* txn) {
    WorkloadOptions options;
    options.txn = txn;
    std::vector<std::size_t> trace;
    options.on_pull = [&trace](std::size_t job, std::size_t active) {
      trace.push_back(job * 100 + active);
    };
    WorkloadExecutor executor(&f.db, f.doc, options);
    for (const char* q : queries) {
      PlanOptions plan;
      plan.kind = PlanKind::kXSchedule;
      EXPECT_TRUE(executor.Add(q, plan).ok());
    }
    auto result = executor.Run();
    result.status().AbortIfNotOk();
    return std::make_pair(std::move(*result), std::move(trace));
  };

  auto [baseline, baseline_trace] = run(nullptr);
  auto [mvcc, mvcc_trace] = run(f.mgr.get());

  // Scheduling decisions, per-query results and the simulated makespan
  // are byte-identical: the genesis snapshot translates as identity and
  // its acquisition is host-side only.
  EXPECT_EQ(baseline_trace, mvcc_trace);
  ASSERT_EQ(baseline.queries.size(), mvcc.queries.size());
  for (std::size_t i = 0; i < baseline.queries.size(); ++i) {
    EXPECT_EQ(baseline.queries[i].count, mvcc.queries[i].count) << i;
    EXPECT_EQ(baseline.queries[i].finished_at, mvcc.queries[i].finished_at)
        << i;
    EXPECT_EQ(baseline.queries[i].pulls, mvcc.queries[i].pulls) << i;
  }
  EXPECT_EQ(baseline.total_time, mvcc.total_time);
}

TEST(TxnTest, MixedWorkloadReadersSeeConsistentVersions) {
  TxnFixture f(
      "<site><auctions><lot>1</lot><lot>2</lot></auctions></site>");
  const TagId bid = f.db.tags()->Intern("bid");

  WorkloadOptions options;
  options.txn = f.mgr.get();
  options.max_concurrent = 4;
  WorkloadExecutor executor(&f.db, f.doc, options);

  // Interleave scans over //bid with writer transactions appending bids.
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;
  ASSERT_TRUE(executor.Add("//bid", plan, 0).ok());
  ASSERT_TRUE(
      executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, bid, "b0"}}, 0)
          .ok());
  ASSERT_TRUE(executor.Add("//bid", plan, 0).ok());
  ASSERT_TRUE(
      executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, bid, "b1"},
                         WriteOp{f.doc.root, kInvalidNodeID, bid, "b2"}},
                        0)
          .ok());
  ASSERT_TRUE(executor.Add("//bid", plan, 0).ok());

  auto result = executor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::uint64_t commits_seen = 0;
  std::uint64_t writes_total = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> commits;  // seq,size
  for (const WorkloadQueryResult& q : result->queries) {
    if (!q.is_write) continue;
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    EXPECT_GT(q.commit_seq, 0u);
    commits.emplace_back(q.commit_seq, q.writes_applied);
    ++commits_seen;
    writes_total += q.writes_applied;
  }
  EXPECT_EQ(commits_seen, 2u);
  EXPECT_EQ(writes_total, 3u);
  EXPECT_EQ(f.mgr->commits(), 2u);

  // Snapshot consistency: each reader's count equals the bids inserted
  // by commits at or before its snapshot — no torn reads, no phantom
  // from a later commit.
  for (const WorkloadQueryResult& q : result->queries) {
    if (q.is_write) continue;
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    std::uint64_t expected = 0;
    for (const auto& [seq, size] : commits) {
      if (seq <= q.snapshot_seq) expected += size;
    }
    EXPECT_EQ(q.count, expected) << "snapshot seq " << q.snapshot_seq;
  }

  // The canonical document reflects the final version.
  EXPECT_EQ(f.mgr->current_seq(), 2u);
  const std::string final_doc = f.ExportCurrent();
  EXPECT_NE(final_doc.find("<bid>b2</bid>"), std::string::npos);
}

TEST(TxnTest, ConcurrentWritersRetryAfterConflictAndBothCommit) {
  TxnFixture f("<r><a/></r>");
  const TagId one = f.db.tags()->Intern("one");
  const TagId two = f.db.tags()->Intern("two");

  WorkloadOptions options;
  options.txn = f.mgr.get();
  options.max_concurrent = 4;
  options.max_writers = 2;
  WorkloadExecutor executor(&f.db, f.doc, options);
  ASSERT_TRUE(executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, one}}, 0)
                  .ok());
  ASSERT_TRUE(executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, two}}, 0)
                  .ok());

  auto result = executor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Both writers were admitted optimistically against the same base
  // version and both touch the root's page, so exactly one loses the
  // first-committer race, retries against the new head, and commits.
  std::vector<std::uint64_t> seqs;
  std::uint64_t aborts_total = 0;
  for (const WorkloadQueryResult& q : result->queries) {
    ASSERT_TRUE(q.is_write);
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    EXPECT_FALSE(q.degraded);
    seqs.push_back(q.commit_seq);
    aborts_total += q.aborts;
    // The committed attempt's base is the version just below its commit.
    EXPECT_EQ(q.snapshot_seq + 1, q.commit_seq);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(aborts_total, 1u);
  EXPECT_EQ(f.mgr->commits(), 2u);
  EXPECT_EQ(f.mgr->aborts(), 1u);

  const std::string current = f.ExportCurrent();
  EXPECT_NE(current.find("<one/>"), std::string::npos);
  EXPECT_NE(current.find("<two/>"), std::string::npos);
}

TEST(TxnTest, WriterRetryExhaustionFailsWithAborted) {
  TxnFixture f("<r><a/></r>");
  const TagId tag = f.db.tags()->Intern("t");

  WorkloadOptions options;
  options.txn = f.mgr.get();
  options.max_concurrent = 4;
  options.max_writers = 2;
  options.writer_max_retries = 0;  // lose the race once -> fail for good
  WorkloadExecutor executor(&f.db, f.doc, options);
  ASSERT_TRUE(executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, tag}}, 0)
                  .ok());
  ASSERT_TRUE(executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, tag}}, 0)
                  .ok());

  auto result = executor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::size_t committed = 0, failed = 0;
  for (const WorkloadQueryResult& q : result->queries) {
    if (q.status.ok()) {
      EXPECT_GT(q.commit_seq, 0u);
      ++committed;
    } else {
      EXPECT_TRUE(q.status.IsAborted()) << q.status.ToString();
      EXPECT_EQ(q.commit_seq, 0u);
      ++failed;
    }
  }
  EXPECT_EQ(committed, 1u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(f.mgr->commits(), 1u);
  EXPECT_EQ(f.mgr->aborts(), 1u);
}

TEST(TxnTest, GroupCommitAmortizesPullsOverTheBatch) {
  const std::size_t kOps = 4;
  auto run = [&](std::size_t batch) {
    TxnFixture f("<r><a/></r>");
    const TagId tag = f.db.tags()->Intern("t");
    WorkloadOptions options;
    options.txn = f.mgr.get();
    options.writer_batch = batch;
    WorkloadExecutor executor(&f.db, f.doc, options);
    std::vector<WriteOp> ops;
    for (std::size_t i = 0; i < kOps; ++i) {
      ops.push_back(WriteOp{f.doc.root, kInvalidNodeID, tag, "x"});
    }
    ASSERT_TRUE(executor.AddWrite(std::move(ops), 0).ok())
        << "batch " << batch;
    auto result = executor.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const WorkloadQueryResult& q = result->queries[0];
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    EXPECT_EQ(q.writes_applied, kOps);
    EXPECT_EQ(q.commit_seq, 1u);
    // ceil(ops/batch) apply pulls plus one commit pull.
    const std::uint64_t expected_pulls = (kOps + batch - 1) / batch + 1;
    EXPECT_EQ(q.pulls, expected_pulls) << "batch " << batch;
  };
  run(1);  // historical one-op-per-pull shape
  run(2);
  run(4);  // whole transaction in one pull, commit on the next
}

TEST(TxnTest, ExecutorDeletesKeepSummariesExact) {
  TxnFixture f(
      "<site><auctions><lot>1</lot><lot>2</lot></auctions></site>");
  const TagId bid = f.db.tags()->Intern("bid");
  ASSERT_NE(f.db.shared_summary(), nullptr);

  WorkloadOptions options;
  options.txn = f.mgr.get();
  options.max_concurrent = 4;
  WorkloadExecutor executor(&f.db, f.doc, options);
  PlanOptions plan;
  plan.kind = PlanKind::kXSchedule;

  // Inserts with after == kInvalidNodeID prepend, so root's bid children
  // run newest-first and "last child tagged bid" is the OLDEST bid.
  // Writer 1: +b0 +b1 -oldest(b0) => b1 survives, net one. Writer 2
  // (base is the first commit): +b2 -oldest(b1) +b3 => net one more —
  // its delete resolves through its own translator over the committed
  // base, removing writer 1's b1.
  ASSERT_TRUE(executor.Add("//bid", plan, 0).ok());
  ASSERT_TRUE(
      executor
          .AddWrite({WriteOp{f.doc.root, kInvalidNodeID, bid, "b0"},
                     WriteOp{f.doc.root, kInvalidNodeID, bid, "b1"},
                     WriteOp{f.doc.root, kInvalidNodeID, bid, "",
                             {}, WriteOp::Kind::kDelete}},
                    0)
          .ok());
  ASSERT_TRUE(executor.Add("//bid", plan, 0).ok());
  ASSERT_TRUE(
      executor
          .AddWrite({WriteOp{f.doc.root, kInvalidNodeID, bid, "b2"},
                     WriteOp{f.doc.root, kInvalidNodeID, bid, "",
                             {}, WriteOp::Kind::kDelete},
                     WriteOp{f.doc.root, kInvalidNodeID, bid, "b3"}},
                    0)
          .ok());
  ASSERT_TRUE(executor.Add("//bid", plan, 0).ok());

  auto result = executor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Per-commit net bid deltas, keyed by commit seq.
  std::vector<std::pair<std::uint64_t, std::int64_t>> deltas;
  for (const WorkloadQueryResult& q : result->queries) {
    if (!q.is_write) continue;
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    EXPECT_GT(q.deletes_applied, 0u);
    deltas.emplace_back(q.commit_seq,
                        static_cast<std::int64_t>(q.writes_applied) -
                            static_cast<std::int64_t>(q.deletes_applied));
  }
  ASSERT_EQ(deltas.size(), 2u);

  // Snapshot consistency with deletes: a reader counts exactly the net
  // inserts of commits at or before its pinned version.
  for (const WorkloadQueryResult& q : result->queries) {
    if (q.is_write) continue;
    ASSERT_TRUE(q.status.ok()) << q.status.ToString();
    std::int64_t expected = 0;
    for (const auto& [seq, delta] : deltas) {
      if (seq <= q.snapshot_seq) expected += delta;
    }
    EXPECT_EQ(static_cast<std::int64_t>(q.count), expected)
        << "snapshot seq " << q.snapshot_seq;
  }

  // Insert/delete-only transactions maintain their version's summary by
  // deltas — no commit published a degraded (summary-less) version.
  EXPECT_EQ(f.mgr->summary_degrades(), 0u);
  const std::string current = f.ExportCurrent();
  EXPECT_NE(current.find("<bid>b2</bid>"), std::string::npos);
  EXPECT_NE(current.find("<bid>b3</bid>"), std::string::npos);
  EXPECT_EQ(current.find("<bid>b0</bid>"), std::string::npos);
  EXPECT_EQ(current.find("<bid>b1</bid>"), std::string::npos);
}

TEST(TxnTest, DeleteWithoutMatchingChildFailsThatJobAlone) {
  TxnFixture f("<r><a/></r>");
  const TagId missing = f.db.tags()->Intern("nope");

  WorkloadOptions options;
  options.txn = f.mgr.get();
  WorkloadExecutor executor(&f.db, f.doc, options);
  PlanOptions plan;
  plan.kind = PlanKind::kSimple;
  ASSERT_TRUE(executor.Add("//a", plan, 0).ok());
  ASSERT_TRUE(executor
                  .AddWrite({WriteOp{f.doc.root, kInvalidNodeID, missing, "",
                                     {}, WriteOp::Kind::kDelete}},
                            0)
                  .ok());

  auto result = executor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const WorkloadQueryResult& writer = result->queries[1];
  ASSERT_TRUE(writer.is_write);
  EXPECT_TRUE(writer.status.IsInvalidArgument())
      << writer.status.ToString();
  EXPECT_EQ(writer.commit_seq, 0u);
  // The reader is unharmed and the store saw a clean abort, not a commit.
  EXPECT_TRUE(result->queries[0].status.ok());
  EXPECT_EQ(f.mgr->commits(), 0u);
  EXPECT_EQ(f.mgr->aborts(), 1u);
}

TEST(TxnTest, RetierNeverTouchesAWriterEvenMidRetry) {
  TxnFixture f("<r><a/></r>");
  const TagId tag = f.db.tags()->Intern("t");

  WorkloadOptions options;
  options.txn = f.mgr.get();
  options.max_writers = 2;
  WorkloadExecutor executor(&f.db, f.doc, options);
  ASSERT_TRUE(executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, tag}}, 0)
                  .ok());
  ASSERT_TRUE(executor.AddWrite({WriteOp{f.doc.root, kInvalidNodeID, tag}}, 0)
                  .ok());

  ASSERT_TRUE(executor.BeginStepping(2).ok());
  ASSERT_TRUE(executor.ActivateJob(0).ok());
  ASSERT_TRUE(executor.ActivateJob(1).ok());

  // An activated (in-flight) writer can never be re-tiered.
  PlanOptions degraded;
  degraded.kind = PlanKind::kSimple;
  Status retier = executor.RetierJob(0, degraded);
  ASSERT_TRUE(retier.IsInvalidArgument());
  EXPECT_NE(retier.ToString().find("no plan tier"), std::string::npos)
      << retier.ToString();

  // Step until one writer loses the first-committer race; while it is
  // backing off for a retry it is STILL a write job to overload control,
  // and the rejection must be the write-specific one (not "job already
  // started", which would imply an idle job that could be re-planned).
  bool saw_mid_retry_rejection = false;
  for (int step = 0; step < 64; ++step) {
    auto done = executor.StepOnce();
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    for (std::size_t j = 0; j < 2; ++j) {
      const WorkloadQueryResult& r = executor.JobResult(j);
      if (r.aborts > 0 && r.commit_seq == 0 && r.status.ok()) {
        Status mid = executor.RetierJob(j, degraded);
        ASSERT_TRUE(mid.IsInvalidArgument());
        EXPECT_NE(mid.ToString().find("no plan tier"), std::string::npos)
            << mid.ToString();
        saw_mid_retry_rejection = true;
      }
    }
    if (executor.JobResult(0).commit_seq > 0 &&
        executor.JobResult(1).commit_seq > 0) {
      break;
    }
  }
  EXPECT_TRUE(saw_mid_retry_rejection);

  auto result = executor.EndStepping();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const WorkloadQueryResult& q : result->queries) {
    EXPECT_TRUE(q.status.ok()) << q.status.ToString();
    EXPECT_FALSE(q.degraded);
  }
  EXPECT_EQ(f.mgr->commits(), 2u);
}

// --- Seeded randomized reader/writer interleaving stress -----------------

class TxnStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnStress, ReadersAlwaysSeeTheirSnapshot) {
  TxnFixture f("<r><a>seed</a><b/><c><d/></c></r>");
  Random rng(GetParam());
  const TagId tags[] = {f.db.tags()->Intern("u"), f.db.tags()->Intern("v"),
                        f.db.tags()->Intern("w")};

  struct PinnedReader {
    std::shared_ptr<Snapshot> snap;
    std::string expected;
  };
  std::vector<PinnedReader> readers;
  int commits = 0;

  for (int step = 0; step < 60; ++step) {
    const std::uint32_t dice = rng.NextBounded(10);
    if (dice < 4) {
      // Open a reader and record the document it must keep seeing.
      PinnedReader reader;
      reader.snap = f.mgr->OpenSnapshot();
      reader.expected = f.Export(*reader.snap);
      readers.push_back(std::move(reader));
    } else if (dice < 8) {
      // Writer: insert 1-3 nodes under a random element of its own
      // (uncommitted) view, then commit or — rarely — abort.
      auto writer = f.mgr->BeginWrite();
      const int n = 1 + static_cast<int>(rng.NextBounded(3));
      bool ok = true;
      for (int i = 0; i < n && ok; ++i) {
        // NodeIDs are physical and may be relocated by the page splits an
        // insert can trigger — re-collect the candidate parents before
        // every insert instead of holding them across mutations.
        std::vector<NodeID> elements{writer->doc()->root};
        CrossClusterCursor cursor(&f.db, writer.get());
        cursor.Start(Axis::kDescendant, writer->doc()->root).AbortIfNotOk();
        LogicalNode node;
        for (;;) {
          auto more = cursor.Next(&node);
          more.status().AbortIfNotOk();
          if (!*more) break;
          elements.push_back(node.id);
        }
        const NodeID parent = elements[rng.NextBounded(elements.size())];
        auto inserted = writer->updater()->InsertElement(
            parent, kInvalidNodeID, tags[rng.NextBounded(3)],
            rng.NextBool(0.5) ? "t" : "");
        ok = inserted.ok();
        ASSERT_TRUE(ok) << inserted.status().ToString();
      }
      if (rng.NextBool(0.15)) {
        ASSERT_TRUE(writer->Abort().ok());
      } else {
        ASSERT_TRUE(writer->Commit().ok());
        ++commits;
      }
    } else if (!readers.empty()) {
      // Close a random reader, verifying its view one last time.
      const std::size_t pick = rng.NextBounded(readers.size());
      EXPECT_EQ(f.Export(*readers[pick].snap), readers[pick].expected)
          << "seed " << GetParam() << " step " << step;
      readers.erase(readers.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // Every live reader still sees exactly its snapshot's document —
    // commits, aborts and reclamation never disturb a pinned version.
    if (step % 7 == 6) {
      for (const PinnedReader& reader : readers) {
        ASSERT_EQ(f.Export(*reader.snap), reader.expected)
            << "seed " << GetParam() << " step " << step;
      }
    }
  }

  for (const PinnedReader& reader : readers) {
    EXPECT_EQ(f.Export(*reader.snap), reader.expected);
  }
  readers.clear();

  // All readers drained: every retired version must now be reclaimed
  // (no buffer pins are held here), and the chain head is intact.
  EXPECT_EQ(f.mgr->retired_pending(), 0u);
  EXPECT_EQ(f.mgr->versions_reclaimed(), f.mgr->versions_retired());
  EXPECT_EQ(f.mgr->commits(), static_cast<std::uint64_t>(commits));
  EXPECT_EQ(f.ExportCurrent(), f.ExportCurrent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnStress,
                         ::testing::Values(1u, 42u, 1234u, 98765u));

}  // namespace
}  // namespace navpath
