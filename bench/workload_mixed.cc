// Mixed read/write workload under MVCC snapshots: scan queries keep
// running while auction-bid style insert transactions arrive at a fixed
// seeded rate, each reader pinned to the version current at its
// activation.
//
// Three arms over one XMark fixture (scale 0.10):
//   baseline    — the pre-MVCC executor (WorkloadOptions.txn unset),
//   zero-writer — the same reader stream with the transaction layer on
//                 but no writers submitted,
//   mixed       — the same readers plus writer transactions inserting
//                 <xbid> elements under the document root.
//
// Reports reader p50/p95/p99 turnaround per arm, writer commit
// throughput, and version-reclamation counters. Exits nonzero when:
//   - the zero-writer arm is not byte-identical to the baseline (pull
//     schedule, makespan, per-query counts and finish times) — an idle
//     transaction layer must be free,
//   - the mixed arm's reader p95 turnaround exceeds 1.5x the read-only
//     baseline,
//   - any reader observes a partially committed mutation: every <xbid>
//     probe must count exactly ops_per_writer nodes per commit at or
//     below its snapshot sequence,
//   - any writer fails to commit, or retired versions remain
//     unreclaimed after the workload drains.
//
// A fourth section sweeps writer concurrency: W ∈ {1, 2, 4}
// group-committing writers, each touching its own widely-separated run
// of parents (page-disjoint write sets — low conflict), head the
// reader stream, admitted optimistically (max_writers = W)
// and, for W = 2 and W = 4, once more fully serialized (max_writers =
// 1). Commit throughput is commits over the arm's makespan; the bench
// exits nonzero when serialized admission matches or beats optimistic
// at W = 2. There optimistic concurrency wins: writer admission is
// head-of-line, so a serialized writer queue holds every job behind it
// out of the system and the mixed workload runs writer phase then
// reader phase back to back, while optimistic admission overlaps the
// readers' pooled I/O with the writers' synchronous copy-on-write
// fixes. The W = 4 pair is reported but not gated: there the writers
// commit equally early under both admissions, but the optimistic arm's
// reader phase runs longer and serialized admission wins (DESIGN.md
// §12).
//
// Appends a "mixed" section to the BENCH_workload.json trajectory
// (written by workload_throughput; schema note in DESIGN.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "compiler/workload_executor.h"
#include "store/cross_cursor.h"
#include "txn/txn.h"

namespace {

using namespace navpath;

constexpr double kScale = 0.10;
constexpr std::size_t kReaders = 24;
constexpr std::size_t kWriters = 6;
constexpr std::size_t kOpsPerWriter = 2;
constexpr std::uint64_t kSeed = 20260808;

// Writer-concurrency sweep: writer count, ops per transaction (applied
// in group-commit batches, each op under a different cold parent page so
// writer service time is real I/O), the batch size, and the reader
// stream the writers head.
constexpr std::size_t kSweepOps = 24;
constexpr std::size_t kSweepBatch = 6;
constexpr std::size_t kSweepReaders = 10;

// Scan queries running while the writers commit; the //xbid probes are
// the consistency oracle (they count exactly what the writers insert).
constexpr const char* kMix[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site//keyword",
    "/site/open_auctions//bidder",
    "//xbid",
};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto index = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

WorkloadOptions MixedConfig(const DocumentStats* stats) {
  WorkloadOptions options;
  options.policy = WorkloadPolicy::kHybrid;
  options.stats = stats;
  options.summary = false;
  options.max_concurrent = 4;
  return options;
}

struct ReaderArm {
  std::vector<std::size_t> schedule;   // on_pull trace (job ids)
  std::vector<WorkloadQueryResult> queries;
  SimTime total_time = 0;
  std::vector<double> reader_turnarounds;  // seconds, readers only
};

void CollectReaderStats(const WorkloadResult& run, ReaderArm* arm) {
  arm->queries = run.queries;
  arm->total_time = run.total_time;
  for (const WorkloadQueryResult& q : run.queries) {
    if (q.is_write || !q.status.ok()) continue;
    arm->reader_turnarounds.push_back(q.turnaround_seconds());
  }
}

}  // namespace

int main() {
  std::printf(
      "Mixed read/write workload — scale %.2f, %zu readers, %zu writers "
      "x %zu inserts\n",
      kScale, kReaders, kWriters, kOpsPerWriter);
  // Every arm (and the capacity probe) runs on its own freshly created
  // fixture: the simulated drive's head position survives a run, so two
  // runs on one database start from different device states and their
  // schedules drift apart even when logically identical. XMark
  // generation and import are seeded, so fresh fixtures are identical.
  const auto fresh_fixture = [&] {
    auto fixture = XMarkFixture::Create(kScale);
    fixture.status().AbortIfNotOk();
    return std::move(*fixture);
  };

  // One seeded exponential arrival stream for the readers; writers land
  // evenly spaced across the same span. Measure the sustainable
  // completion interval first so the arrival rate tracks capacity.
  SimTime mean_service = 0;
  {
    auto fixture = fresh_fixture();
    WorkloadExecutor closed(fixture->db(), fixture->doc(),
                            MixedConfig(&fixture->stats()));
    for (std::size_t i = 0; i < 2 * kMixSize; ++i) {
      closed.Add(kMix[i % kMixSize], PaperPlan(PlanKind::kXSchedule))
          .AbortIfNotOk();
    }
    auto run = closed.Run();
    run.status().AbortIfNotOk();
    mean_service = run->total_time / (2 * kMixSize);
  }
  std::vector<SimTime> reader_at(kReaders);
  {
    Random rng(kSeed);
    const double mean_gap = static_cast<double>(mean_service) / 0.6;
    double at = 0.0;
    for (std::size_t i = 0; i < kReaders; ++i) {
      double u = rng.NextDouble();
      if (u <= 0.0) u = 1e-12;
      at += -mean_gap * std::log(u);
      reader_at[i] = static_cast<SimTime>(at);
    }
  }
  const SimTime span = reader_at.back();
  std::vector<SimTime> writer_at(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writer_at[w] = span * (w + 1) / (kWriters + 1);
  }

  const auto add_readers = [&](WorkloadExecutor* executor) {
    for (std::size_t i = 0; i < kReaders; ++i) {
      executor
          ->Add(kMix[i % kMixSize], PaperPlan(PlanKind::kXSchedule),
                reader_at[i])
          .AbortIfNotOk();
    }
  };

  bool ok = true;

  // --- Arm 1: read-only baseline (no transaction layer). -----------------
  ReaderArm baseline;
  {
    auto fixture = fresh_fixture();
    WorkloadOptions options = MixedConfig(&fixture->stats());
    options.on_pull = [&](std::size_t job, std::size_t) {
      baseline.schedule.push_back(job);
    };
    WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
    add_readers(&executor);
    auto run = executor.Run();
    run.status().AbortIfNotOk();
    CollectReaderStats(*run, &baseline);
  }

  // --- Arm 2: transaction layer on, zero writers. -------------------------
  // Must be byte-identical: the genesis snapshot translates nothing and
  // snapshot acquisition is host-side bookkeeping.
  ReaderArm zero_writer;
  {
    auto fixture = fresh_fixture();
    TxnManager mgr(fixture->db(), fixture->mutable_doc());
    WorkloadOptions options = MixedConfig(&fixture->stats());
    options.txn = &mgr;
    options.on_pull = [&](std::size_t job, std::size_t) {
      zero_writer.schedule.push_back(job);
    };
    WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
    add_readers(&executor);
    auto run = executor.Run();
    run.status().AbortIfNotOk();
    CollectReaderStats(*run, &zero_writer);
  }
  bool identical = baseline.schedule == zero_writer.schedule &&
                   baseline.total_time == zero_writer.total_time &&
                   baseline.queries.size() == zero_writer.queries.size();
  if (identical) {
    for (std::size_t i = 0; i < baseline.queries.size(); ++i) {
      if (baseline.queries[i].count != zero_writer.queries[i].count ||
          baseline.queries[i].finished_at !=
              zero_writer.queries[i].finished_at) {
        identical = false;
        break;
      }
    }
  }
  if (!identical) {
    std::fprintf(stderr,
                 "zero-writer arm deviates from the read-only baseline: "
                 "pulls %zu vs %zu, makespan %llu vs %llu\n",
                 baseline.schedule.size(), zero_writer.schedule.size(),
                 static_cast<unsigned long long>(baseline.total_time),
                 static_cast<unsigned long long>(zero_writer.total_time));
    for (std::size_t i = 0;
         i < std::min(baseline.schedule.size(), zero_writer.schedule.size());
         ++i) {
      if (baseline.schedule[i] != zero_writer.schedule[i]) {
        std::fprintf(stderr, "  first pull divergence at %zu: job %zu vs %zu\n",
                     i, baseline.schedule[i], zero_writer.schedule[i]);
        break;
      }
    }
    for (std::size_t i = 0; i < std::min(baseline.queries.size(),
                                         zero_writer.queries.size());
         ++i) {
      const WorkloadQueryResult& a = baseline.queries[i];
      const WorkloadQueryResult& b = zero_writer.queries[i];
      if (a.count != b.count || a.finished_at != b.finished_at ||
          a.pulls != b.pulls) {
        std::fprintf(stderr,
                     "  query %zu: count %llu vs %llu, pulls %llu vs %llu, "
                     "finished %llu vs %llu\n",
                     i, static_cast<unsigned long long>(a.count),
                     static_cast<unsigned long long>(b.count),
                     static_cast<unsigned long long>(a.pulls),
                     static_cast<unsigned long long>(b.pulls),
                     static_cast<unsigned long long>(a.finished_at),
                     static_cast<unsigned long long>(b.finished_at));
      }
    }
    ok = false;
  }

  // --- Arm 3: readers plus writer transactions. ---------------------------
  ReaderArm mixed;
  std::uint64_t writer_commits = 0;
  std::uint64_t versions_retired = 0;
  std::uint64_t versions_reclaimed = 0;
  std::size_t retired_pending = 0;
  bool consistent = true;
  {
    auto fixture = fresh_fixture();
    const TagId xbid = fixture->db()->tags()->Intern("xbid");
    TxnManager mgr(fixture->db(), fixture->mutable_doc());
    WorkloadOptions options = MixedConfig(&fixture->stats());
    options.txn = &mgr;
    options.on_pull = [&](std::size_t job, std::size_t) {
      mixed.schedule.push_back(job);
    };
    WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
    const auto make_ops = [&] {
      std::vector<WriteOp> ops(kOpsPerWriter);
      for (WriteOp& op : ops) {
        op.parent = fixture->doc().root;
        op.tag = xbid;
        op.text = "mixed";
      }
      return ops;
    };
    // Merge readers and writers into one nondecreasing arrival stream.
    std::size_t r = 0;
    std::size_t w = 0;
    while (r < kReaders || w < kWriters) {
      if (w >= kWriters || (r < kReaders && reader_at[r] <= writer_at[w])) {
        executor
            .Add(kMix[r % kMixSize], PaperPlan(PlanKind::kXSchedule),
                 reader_at[r])
            .AbortIfNotOk();
        ++r;
      } else {
        executor.AddWrite(make_ops(), writer_at[w]).AbortIfNotOk();
        ++w;
      }
    }
    auto run = executor.Run();
    run.status().AbortIfNotOk();
    CollectReaderStats(*run, &mixed);
    writer_commits = mgr.commits();
    versions_retired = mgr.versions_retired();
    versions_reclaimed = mgr.versions_reclaimed();
    retired_pending = mgr.retired_pending();

    std::size_t reader_index = 0;
    for (const WorkloadQueryResult& q : run->queries) {
      if (q.is_write) {
        if (q.commit_seq == 0) {
          std::fprintf(stderr, "writer failed to commit: %s\n",
                       q.status.ToString().c_str());
          ok = false;
        }
        continue;
      }
      // Each commit at or below the reader's snapshot adds exactly
      // kOpsPerWriter <xbid> nodes; a partially applied transaction or a
      // reader drifting off its snapshot breaks this equality.
      if (std::string(kMix[reader_index % kMixSize]) == "//xbid") {
        const std::uint64_t expected = q.snapshot_seq * kOpsPerWriter;
        if (q.count != expected) {
          std::fprintf(stderr,
                       "//xbid probe at snapshot %llu counted %llu, "
                       "expected %llu\n",
                       static_cast<unsigned long long>(q.snapshot_seq),
                       static_cast<unsigned long long>(q.count),
                       static_cast<unsigned long long>(expected));
          consistent = false;
        }
      }
      ++reader_index;
    }
  }
  if (!consistent) ok = false;
  if (writer_commits != kWriters) {
    std::fprintf(stderr, "committed %llu of %zu writers\n",
                 static_cast<unsigned long long>(writer_commits), kWriters);
    ok = false;
  }
  if (retired_pending != 0 || versions_reclaimed != versions_retired) {
    std::fprintf(stderr,
                 "reclamation did not drain: %zu pending, %llu/%llu "
                 "reclaimed\n",
                 retired_pending,
                 static_cast<unsigned long long>(versions_reclaimed),
                 static_cast<unsigned long long>(versions_retired));
    ok = false;
  }

  // --- Writer-concurrency sweep: optimistic vs serialized admission. ------
  struct SweepArm {
    std::size_t writers = 0;
    bool serialized = false;
    std::uint64_t commits = 0;
    std::uint64_t conflict_aborts = 0;
    double abort_rate = 0.0;
    double last_commit_seconds = 0.0;
    double makespan_seconds = 0.0;
    double commit_throughput = 0.0;  // commits per simulated second
  };
  const auto sweep_arm = [&](std::size_t writers, bool serialized) {
    SweepArm arm;
    arm.writers = writers;
    arm.serialized = serialized;
    auto fixture = fresh_fixture();
    const TagId xbid = fixture->db()->tags()->Intern("xbid");

    // Parent pool: the root's non-leaf grandchildren (persons, items,
    // auctions, ...) in document order. Writer w draws its kSweepOps
    // parents from the w-th quarter of the pool with a stride, so each
    // transaction touches many distinct cold pages (real service time)
    // while the writers' page sets stay pairwise disjoint (low
    // conflict). Leaf grandchildren are excluded: prepending under a
    // leaf walks forward to the next document-order key, a read
    // dependency that can cross into a neighboring writer's quarter and
    // manufacture conflicts the workload does not intend.
    std::vector<NodeID> pool;
    {
      CrossClusterCursor outer(fixture->db());
      outer.Start(Axis::kChild, fixture->doc().root).AbortIfNotOk();
      LogicalNode child;
      for (;;) {
        auto more = outer.Next(&child);
        more.status().AbortIfNotOk();
        if (!*more) break;
        CrossClusterCursor inner(fixture->db());
        inner.Start(Axis::kChild, child.id).AbortIfNotOk();
        LogicalNode grandchild;
        for (;;) {
          auto deeper = inner.Next(&grandchild);
          deeper.status().AbortIfNotOk();
          if (!*deeper) break;
          CrossClusterCursor probe(fixture->db());
          probe.Start(Axis::kChild, grandchild.id).AbortIfNotOk();
          LogicalNode great;
          auto has_child = probe.Next(&great);
          has_child.status().AbortIfNotOk();
          if (*has_child) pool.push_back(grandchild.id);
        }
      }
    }
    if (pool.empty()) pool.push_back(fixture->doc().root);

    TxnManager mgr(fixture->db(), fixture->mutable_doc());
    WorkloadOptions options = MixedConfig(&fixture->stats());
    options.txn = &mgr;
    options.max_concurrent = 0;  // admission limited by writer policy only
    options.max_writers = serialized ? 1 : writers;
    options.writer_batch = kSweepBatch;  // group commit: kSweepOps/kSweepBatch
                                         // apply pulls plus one commit pull
    WorkloadExecutor executor(fixture->db(), fixture->doc(), options);

    // The writers head the closed workload, the reader stream queues
    // behind them. Admission is in-order and head-of-line: under
    // serialized admission writer w+1 — and every reader behind it —
    // stays out of the system until writer w commits, so the arm
    // degenerates into a solo writer phase followed by the reader phase.
    // Optimistic admission admits writers and readers together, and the
    // readers' pooled asynchronous reads complete during the clock time
    // the writers' synchronous fixes were paying for anyway.
    const std::size_t quarter = std::max<std::size_t>(1, pool.size() / 4);
    const std::size_t stride = std::max<std::size_t>(1, quarter / kSweepOps);
    for (std::size_t w = 0; w < writers; ++w) {
      std::vector<WriteOp> ops(kSweepOps);
      for (std::size_t j = 0; j < kSweepOps; ++j) {
        ops[j].parent =
            pool[((w % 4) * quarter + j * stride) % pool.size()];
        ops[j].tag = xbid;
        ops[j].text = "sweep";
      }
      executor.AddWrite(std::move(ops), 0).AbortIfNotOk();
    }
    for (std::size_t i = 0; i < kSweepReaders; ++i) {
      executor.Add(kMix[i % kMixSize], PaperPlan(PlanKind::kXSchedule), 0)
          .AbortIfNotOk();
    }
    auto run = executor.Run();
    run.status().AbortIfNotOk();

    SimTime last_commit = 0;
    for (const WorkloadQueryResult& q : run->queries) {
      if (!q.is_write) continue;
      if (!q.status.ok() || q.commit_seq == 0) {
        std::fprintf(stderr, "sweep W=%zu %s: writer failed: %s\n", writers,
                     serialized ? "serialized" : "optimistic",
                     q.status.ToString().c_str());
        ok = false;
        continue;
      }
      arm.conflict_aborts += q.aborts;
      last_commit = std::max(last_commit, q.finished_at);
    }
    arm.commits = mgr.commits();
    if (arm.commits != writers) ok = false;
    const std::uint64_t attempts = arm.commits + arm.conflict_aborts;
    arm.abort_rate = attempts > 0 ? static_cast<double>(arm.conflict_aborts) /
                                        static_cast<double>(attempts)
                                  : 0.0;
    arm.last_commit_seconds = SimClock::ToSeconds(last_commit);
    arm.makespan_seconds = SimClock::ToSeconds(run->total_time);
    // System commit throughput: commits delivered per second of total
    // serving time for the whole mixed workload. Serialized admission
    // runs the writer queue and the blocked reader stream back to back,
    // stretching the makespan by the writers' solo service time;
    // optimistic admission overlaps the two, same commits over a
    // shorter span.
    arm.commit_throughput =
        arm.makespan_seconds > 0.0
            ? static_cast<double>(arm.commits) / arm.makespan_seconds
            : 0.0;
    return arm;
  };
  std::vector<SweepArm> sweep;
  sweep.push_back(sweep_arm(1, false));
  sweep.push_back(sweep_arm(2, false));
  sweep.push_back(sweep_arm(2, true));
  sweep.push_back(sweep_arm(4, false));
  sweep.push_back(sweep_arm(4, true));
  const SweepArm& opt2 = sweep[1];
  const SweepArm& ser2 = sweep[2];
  if (opt2.commit_throughput <= ser2.commit_throughput) {
    std::fprintf(stderr,
                 "optimistic W=2 commit throughput %.3f/s does not beat "
                 "serialized %.3f/s (abort rates %.2f vs %.2f)\n",
                 opt2.commit_throughput, ser2.commit_throughput,
                 opt2.abort_rate, ser2.abort_rate);
    ok = false;
  }

  const double base_p50 = Percentile(baseline.reader_turnarounds, 0.50);
  const double base_p95 = Percentile(baseline.reader_turnarounds, 0.95);
  const double base_p99 = Percentile(baseline.reader_turnarounds, 0.99);
  const double mixed_p50 = Percentile(mixed.reader_turnarounds, 0.50);
  const double mixed_p95 = Percentile(mixed.reader_turnarounds, 0.95);
  const double mixed_p99 = Percentile(mixed.reader_turnarounds, 0.99);
  const double p95_ratio = base_p95 > 0.0 ? mixed_p95 / base_p95 : 0.0;
  const double mixed_seconds = SimClock::ToSeconds(mixed.total_time);
  const double commit_throughput =
      mixed_seconds > 0.0 ? static_cast<double>(writer_commits) / mixed_seconds
                          : 0.0;
  if (p95_ratio > 1.5) {
    std::fprintf(stderr,
                 "mixed reader p95 %.3fs is %.2fx the baseline %.3fs "
                 "(bound 1.5x)\n",
                 mixed_p95, p95_ratio, base_p95);
    ok = false;
  }

  PrintTableHeader("Reader turnaround by arm (writers riding along)",
                   {"arm", "readers", "p50[s]", "p95[s]", "p99[s]"});
  PrintTableRow({"baseline", std::to_string(baseline.reader_turnarounds.size()),
                 FormatSeconds(base_p50), FormatSeconds(base_p95),
                 FormatSeconds(base_p99)});
  PrintTableRow({"zero-writer",
                 std::to_string(zero_writer.reader_turnarounds.size()),
                 FormatSeconds(Percentile(zero_writer.reader_turnarounds, 0.50)),
                 FormatSeconds(Percentile(zero_writer.reader_turnarounds, 0.95)),
                 FormatSeconds(
                     Percentile(zero_writer.reader_turnarounds, 0.99))});
  PrintTableRow({"mixed", std::to_string(mixed.reader_turnarounds.size()),
                 FormatSeconds(mixed_p50), FormatSeconds(mixed_p95),
                 FormatSeconds(mixed_p99)});
  PrintTableHeader("Writer-concurrency sweep (group commit, low conflict)",
                   {"arm", "commits", "tp[1/s]", "abort%", "last[s]",
                    "makespan[s]"});
  for (const SweepArm& arm : sweep) {
    char tp[32], rate[32];
    std::snprintf(tp, sizeof tp, "%.3f", arm.commit_throughput);
    std::snprintf(rate, sizeof rate, "%.1f", 100.0 * arm.abort_rate);
    PrintTableRow({"W=" + std::to_string(arm.writers) +
                       (arm.serialized ? " serial" : " optim"),
                   std::to_string(arm.commits), tp, rate,
                   FormatSeconds(static_cast<double>(
                       arm.last_commit_seconds)),
                   FormatSeconds(arm.makespan_seconds)});
  }
  std::printf(
      "zero-writer arm byte-identical: %s; reader p95 ratio %.2fx; "
      "%llu commits (%.2f/s); versions retired %llu, reclaimed %llu\n",
      identical ? "yes" : "NO", p95_ratio,
      static_cast<unsigned long long>(writer_commits), commit_throughput,
      static_cast<unsigned long long>(versions_retired),
      static_cast<unsigned long long>(versions_reclaimed));

  JsonWriter json;
  json.BeginObject();
  json.Key("scale_factor").Value(kScale);
  json.Key("seed").Value(kSeed);
  json.Key("readers").Value(static_cast<std::uint64_t>(kReaders));
  json.Key("writers").Value(static_cast<std::uint64_t>(kWriters));
  json.Key("ops_per_writer").Value(static_cast<std::uint64_t>(kOpsPerWriter));
  json.Key("zero_writer_identical").Value(identical);
  json.Key("consistency_ok").Value(consistent);
  json.Key("baseline").BeginObject();
  json.Key("p50_seconds").Value(base_p50);
  json.Key("p95_seconds").Value(base_p95);
  json.Key("p99_seconds").Value(base_p99);
  json.Key("makespan_seconds").Value(SimClock::ToSeconds(baseline.total_time));
  json.EndObject();
  json.Key("mixed").BeginObject();
  json.Key("p50_seconds").Value(mixed_p50);
  json.Key("p95_seconds").Value(mixed_p95);
  json.Key("p99_seconds").Value(mixed_p99);
  json.Key("p95_ratio").Value(p95_ratio);
  json.Key("makespan_seconds").Value(mixed_seconds);
  json.Key("writer_commits").Value(writer_commits);
  json.Key("commit_throughput_per_second").Value(commit_throughput);
  json.Key("versions_retired").Value(versions_retired);
  json.Key("versions_reclaimed").Value(versions_reclaimed);
  json.Key("writer_sweep").BeginArray();
  for (const SweepArm& arm : sweep) {
    json.BeginObject();
    json.Key("writers").Value(static_cast<std::uint64_t>(arm.writers));
    json.Key("admission").Value(arm.serialized ? "serialized" : "optimistic");
    json.Key("ops_per_writer").Value(static_cast<std::uint64_t>(kSweepOps));
    json.Key("commits").Value(arm.commits);
    json.Key("conflict_aborts").Value(arm.conflict_aborts);
    json.Key("abort_rate").Value(arm.abort_rate);
    json.Key("commit_throughput_per_second").Value(arm.commit_throughput);
    json.Key("last_commit_seconds").Value(arm.last_commit_seconds);
    json.Key("makespan_seconds").Value(arm.makespan_seconds);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();

  // Splice the section into the trajectory workload_throughput writes;
  // stand alone when it has not run yet.
  const std::string path = BenchTrajectoryPath("BENCH_workload.json");
  std::string doc;
  if (auto existing = ReadTextFile(path); existing.ok()) {
    doc = *std::move(existing);
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    if (const std::size_t at = doc.find(",\"mixed\":");
        at != std::string::npos) {
      doc.resize(at);
      doc += "}";
    }
  }
  if (!doc.empty() && doc.back() == '}') {
    doc.pop_back();
    doc += ",\"mixed\":" + json.str() + "}\n";
  } else {
    doc = "{\"bench\":\"workload_mixed\",\"schema_version\":1,\"mixed\":" +
          json.str() + "}\n";
  }
  const Status wrote = WriteTextFile(path, doc);
  if (!wrote.ok()) {
    std::fprintf(stderr, "trajectory: %s\n", wrote.ToString().c_str());
    ok = false;
  } else {
    std::printf("wrote %s (mixed section)\n", path.c_str());
  }

  std::printf("workload mixed: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
