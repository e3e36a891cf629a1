#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "compiler/cost_model.h"
#include "compiler/executor.h"
#include "compiler/workload_executor.h"
#include "serve/server.h"
#include "shard/shard_executor.h"
#include "shard/sharded_store.h"
#include "store/database.h"
#include "txn/txn.h"
#include "xmark/generator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace navbench {
namespace {

using namespace navpath;

// Store shape shared by every workload: the default 1000-page buffer pool
// (Sec. 6.1) and the moderately aged layout the repository's benches use.
constexpr std::size_t kBufferPages = 1000;
constexpr double kFragmentation = 0.35;
constexpr double kLargeScale = 0.25;  // 3151 pages: 3.2x the pool
constexpr double kSmallScale = 0.05;  // 634 pages: fits the pool

// Predicate-free XMark mix of workload_throughput (scan_closed and
// shard_batch).
const std::vector<std::string> kScanMix = {
    "/site/regions//item",
    "/site/regions//name",
    "/site/people/person/email",
    "/site//description",
    "/site/open_auctions/open_auction/bidder",
    "/site/closed_auctions/closed_auction/annotation/description",
    "/site//keyword",
    "/site/people/person/address/city",
};

// serve_open: short reads (two answered from the path summary) and the
// //xbid probe, whose count is checked by the snapshot rule instead of
// the oracle: every commit adds exactly kOpsPerWrite <xbid> elements.
const std::string kXbidProbe = "//xbid";
const std::vector<std::string> kServeReads = {
    "/site/regions//item",        "/site/people/person/email",
    "/site//keyword",             "/site/open_auctions//bidder",
    "count(/site/regions//item)", "count(/site//description)",
    kXbidProbe,
};

// paper_single: Q6', Q7 and Q15 (Tab. 2), a predicate query, two more
// node-mode paths, a provably-empty count, an exists() and a predicate
// with a value test. Nine queries, so the median of a round falls inside
// one query's samples rather than on the boundary between two.
const std::vector<std::string> kPaperQueries = {
    "count(/site/regions//item)",
    "count(/site//description)+count(/site//annotation)+"
    "count(/site//email)",
    "/site/closed_auctions/closed_auction/annotation/description/parlist/"
    "listitem/parlist/listitem/text/emph/keyword/bold",
    "/site/regions//item[@id]/name",
    "/site/people/person/address/city",
    "/site/open_auctions/open_auction/bidder",
    "count(/site/regions/item)",
    "exists(/site//bold)",
    "/site/people/person[@id=\"person0\"]/name",
};

constexpr std::size_t kClients = 8;  // scan_closed closed-loop clients

constexpr double kServeRate = 12.0;  // arrivals per simulated second
constexpr std::size_t kServeOps = 500;  // per round
constexpr std::size_t kWriteEvery = 10;  // one write per block of ten ops
constexpr std::size_t kOpsPerWrite = 2;
constexpr SimTime kGoldSlack = kSimSecond;
// Elements the writes insert <xbid> children under (see RunServeOpen).
constexpr const char* kWriteParents[] = {
    "/site/people/person",
    "/site/open_auctions/open_auction",
    "/site/closed_auctions/closed_auction",
    "/site/regions//item",
};

constexpr std::size_t kPaperPasses = 6;

constexpr std::size_t kShards = 4;

DatabaseOptions StoreOptions(std::size_t buffer_pages) {
  DatabaseOptions options;
  options.buffer_pages = buffer_pages;
  options.import.fragmentation = kFragmentation;
  return options;
}

XMarkOptions XMark(double scale, std::uint64_t seed) {
  XMarkOptions options;
  options.scale = scale;
  options.seed = seed;
  return options;
}

std::unique_ptr<ClusteringPolicy> Clustering(std::size_t page_size) {
  return std::make_unique<SubtreeClusteringPolicy>(page_size - page_size / 8);
}

/// Generator seed of the round's XMark document. Every round gets its own
/// document, drawn from --seed: a run averages over as many documents as
/// it has rounds, which is what keeps one seed's figures close to the
/// next seed's (a single document's layout sways a round by ~20%).
std::uint64_t DocSeed(const RoundContext& ctx) {
  return ctx.seed * 0x9e3779b97f4a7c15ull ^ (ctx.round + 1);
}

/// Seed of the round's operation order. It depends on the round index
/// only, so two seeds run the same operations against other documents.
std::uint64_t OrderSeed(const RoundContext& ctx, std::uint64_t stream) {
  return (ctx.round + 1) * 0xd1b54a32d192ed03ull ^ stream;
}

/// Expected result count per query text on `tree`, from the DOM oracle.
/// The //xbid probe is checked by the snapshot rule instead.
using Oracle = std::map<std::string, std::uint64_t>;
Oracle OracleCounts(const DomTree& tree, TagRegistry* tags,
                    const std::vector<std::string>& queries) {
  Oracle oracle;
  for (const std::string& text : queries) {
    if (text == kXbidProbe) continue;
    Result<PathQuery> query = ParseQuery(text, tags);
    query.status().AbortIfNotOk();
    oracle[text] =
        query->mode == PathQuery::Mode::kNodes
            ? OracleEvaluate(tree, query->paths.front(), tree.root()).size()
            : OracleCount(tree, *query, tree.root());
  }
  return oracle;
}

/// Seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<std::size_t> Permutation(std::size_t n, Random* rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng->NextBounded(i)]);
  }
  return p;
}

/// `blocks` seeded permutations of 0..n-1, concatenated: every slice of
/// n holds each index once, so rounds differ in order, never in mix.
std::vector<std::size_t> BalancedOrder(std::size_t n, std::size_t blocks,
                                       Random* rng) {
  std::vector<std::size_t> order;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::vector<std::size_t> p = Permutation(n, rng);
    order.insert(order.end(), p.begin(), p.end());
  }
  return order;
}

struct Digest {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Add(const Metrics& m) {
    for (const std::uint64_t v :
         {m.disk_reads, m.disk_seq_reads, m.disk_writes, m.disk_seek_pages,
          m.async_requests, m.requests_merged, m.elevator_depth_sum,
          m.buffer_hits, m.buffer_misses, m.buffer_evictions,
          m.clusters_visited, m.node_tests, m.instances_created}) {
      Add(v);
    }
  }
};

struct Store {
  std::unique_ptr<Database> db;
  ImportedDocument doc;
  DocumentStats stats;
  Oracle oracle;
};

/// The set-up every single-store round pays: XMark generation, import
/// with the path summary, and DocumentStats. The oracle for `queries` is
/// computed from the same DOM afterwards, outside the timed set-up.
Status BuildStore(double scale, const std::vector<std::string>& queries,
                  const RoundContext& ctx, RoundResult* r, Store* out) {
  ScopedSpan setup(ctx.spans, "bench.setup");
  const Stopwatch watch;
  out->db = std::make_unique<Database>(StoreOptions(kBufferPages));
  const std::size_t page_size = out->db->options().page_size;
  const DomTree tree = [&] {
    ScopedSpan span(ctx.spans, "xmark.generate");
    return GenerateXMark(XMark(scale, DocSeed(ctx)), out->db->tags());
  }();
  const std::unique_ptr<ClusteringPolicy> policy = Clustering(page_size);
  {
    ScopedSpan span(ctx.spans, "store.import");
    NAVPATH_ASSIGN_OR_RETURN(out->doc, out->db->Import(tree, policy.get()));
  }
  {
    ScopedSpan span(ctx.spans, "compiler.stats");
    out->stats = DocumentStats::Build(tree, out->doc, page_size);
  }
  r->setup = watch.Elapsed();
  r->sums["store.pages"] += static_cast<double>(out->doc.pages);
  out->oracle = OracleCounts(tree, out->db->tags(), queries);
  return Status::OK();
}

/// Executor-side counters every stepping workload reports.
void RecordWorkload(const WorkloadResult& w, RoundResult* r) {
  AccumulateMetrics(&r->metrics, w.metrics);
  r->sums["sim_cpu_s"] += SimClock::ToSeconds(w.cpu_time);
  r->sums["sim_io_wait_s"] += SimClock::ToSeconds(w.total_time - w.cpu_time);
  r->sums["sched.decisions"] +=
      static_cast<double>(w.scheduler.CounterOr("sched.decisions"));
  if (const HistogramSummary* depth =
          w.scheduler.FindHistogram("sched.pool_depth")) {
    r->samples["sched.pool_depth_p50"].push_back(
        static_cast<double>(depth->p50));
  }
}

/// Checks one read's count and records it.
void CheckRead(const std::string& text, std::uint64_t expected,
               const WorkloadQueryResult& q, RoundResult* r) {
  if (!q.status.ok()) {
    r->Fail(text + ": " + q.status.ToString());
  } else if (q.count != expected) {
    r->Fail(text + ": counted " + std::to_string(q.count) + ", expected " +
            std::to_string(expected));
  } else {
    ++r->completed;
    r->read_turnaround_s.push_back(q.turnaround_seconds());
  }
  r->sums["queries"] += 1;
  r->sums["results"] += static_cast<double>(q.count);
}

// --- scan_closed ---------------------------------------------------------
//
// Closed loop through the stepping API: kClients clients with zero think
// time each submit their next query the moment the previous one
// completes, so turnaround runs from submission to completion.

Status RunScanClosed(const RoundContext& ctx, RoundResult* r) {
  Store store;
  NAVPATH_RETURN_NOT_OK(BuildStore(kLargeScale, kScanMix, ctx, r, &store));
  Database* db = store.db.get();

  // A Latin square over a seeded permutation of the mix: client c's j-th
  // query is perm[(c + j) % 8], so at every step the eight clients start
  // eight different paths. The round picks the sequence; the mix and its
  // co-running pattern stay the same, which keeps rounds comparable.
  Random rng(OrderSeed(ctx, 1));
  const std::vector<std::size_t> perm = Permutation(kScanMix.size(), &rng);
  const std::size_t per_client = ctx.fast ? 2 : kScanMix.size();
  std::vector<std::vector<std::size_t>> plan(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t j = 0; j < per_client; ++j) {
      plan[c].push_back(perm[(c + j) % perm.size()]);
    }
  }

  WorkloadOptions options;
  options.stats = &store.stats;
  options.max_concurrent = kClients;
  WorkloadExecutor executor(db, store.doc, options);
  std::vector<std::size_t> client_of;  // executor job -> client
  std::vector<std::size_t> text_of;    // executor job -> kScanMix index
  std::vector<std::size_t> next(kClients, 0);
  // A submitted query waits for the engine's own admission gate (free
  // slot and room in the buffer budget, FIFO) before it is activated,
  // exactly as WorkloadExecutor::Run admits; the wait counts against its
  // turnaround.
  std::deque<std::size_t> waiting;
  const auto submit = [&](std::size_t client) -> Status {
    const std::size_t text = plan[client][next[client]++];
    PathQuery query;
    {
      ScopedSpan span(ctx.spans, "xpath.parse");
      NAVPATH_ASSIGN_OR_RETURN(query, ParseQuery(kScanMix[text], db->tags()));
    }
    ScopedSpan span(ctx.spans, "compiler.add");
    NAVPATH_RETURN_NOT_OK(
        executor.Add(query, PlanOptions{}, {}, db->clock()->now()));
    client_of.push_back(client);
    text_of.push_back(text);
    waiting.push_back(executor.size() - 1);
    return Status::OK();
  };
  const auto admit = [&]() -> Status {
    while (!waiting.empty() && executor.CanAdmit(waiting.front())) {
      ScopedSpan span(ctx.spans, "compiler.activate");
      NAVPATH_RETURN_NOT_OK(executor.ActivateJob(waiting.front()));
      waiting.pop_front();
    }
    return Status::OK();
  };

  WorkloadResult result;
  const Stopwatch watch;
  {
    ScopedSpan round(ctx.spans, "bench.round");
    NAVPATH_RETURN_NOT_OK(executor.BeginStepping(kClients * per_client));
    for (std::size_t c = 0; c < kClients; ++c) NAVPATH_RETURN_NOT_OK(submit(c));
    NAVPATH_RETURN_NOT_OK(admit());
    while (executor.active_count() > 0) {
      Result<std::size_t> done = [&] {
        ScopedSpan span(ctx.spans, "compiler.step");
        return executor.StepOnce();
      }();
      NAVPATH_RETURN_NOT_OK(done.status());
      if (*done == WorkloadExecutor::kNoJob) continue;
      const std::size_t client = client_of[*done];
      if (next[client] < per_client) NAVPATH_RETURN_NOT_OK(submit(client));
      NAVPATH_RETURN_NOT_OK(admit());
    }
    NAVPATH_ASSIGN_OR_RETURN(result, executor.EndStepping());
  }
  r->host = watch.Elapsed();

  ScopedSpan check(ctx.spans, "bench.check");
  Digest digest;
  for (std::size_t job = 0; job < result.queries.size(); ++job) {
    const WorkloadQueryResult& q = result.queries[job];
    const std::string& text = kScanMix[text_of[job]];
    ++r->attempted;
    CheckRead(text, store.oracle.at(text), q, r);
    digest.Add(q.count);
    digest.Add(q.arrival);
    digest.Add(q.finished_at);
  }
  digest.Add(result.metrics);
  r->digest = digest.h;
  r->sim_span_s = result.total_seconds();
  RecordWorkload(result, r);
  return Status::OK();
}

// --- serve_open ----------------------------------------------------------
//
// Open loop through serve::Server: Poisson arrivals at kServeRate per
// simulated second, two tenants, one write transaction per kWriteEvery
// operations. Turnaround runs from the scheduled arrival.

struct Arrival {
  std::size_t tenant = 0;
  SimTime at = 0;
  std::size_t read = 0;  // kServeReads index (reads only)
  bool is_write = false;
  std::vector<WriteOp> ops;
};

Status RunServeOpen(const RoundContext& ctx, RoundResult* r) {
  Store store;
  NAVPATH_RETURN_NOT_OK(BuildStore(kSmallScale, kServeReads, ctx, r, &store));
  Database* db = store.db.get();

  // Insert points: one parent element per page, each page used once per
  // round. Two limits of store/update make anything denser fail under
  // load: repeated first-child inserts under one parent exhaust the order
  // keys between neighbours (ResourceExhausted), and an insert into a full
  // page evacuates a subtree to a new page, which invalidates the NodeIDs
  // of the elements that moved (a later write naming one of them fails
  // with "not a core node").
  std::vector<NodeID> parents;
  {
    std::unordered_set<PageId> seen;
    for (const char* path : kWriteParents) {
      NAVPATH_ASSIGN_OR_RETURN(const PathQuery query,
                               ParseQuery(path, db->tags()));
      ExecuteOptions exec;
      exec.collect_nodes = true;
      NAVPATH_ASSIGN_OR_RETURN(const QueryRunResult found,
                               ExecuteQuery(db, store.doc, query, exec));
      for (const LogicalNode& node : found.nodes) {
        if (seen.insert(node.id.page).second) parents.push_back(node.id);
      }
    }
  }
  const TagId xbid = db->tags()->Intern("xbid");

  const std::size_t ops = ctx.fast ? 200 : kServeOps;
  std::vector<Arrival> arrivals(ops);
  {
    // Exponential inter-arrival gaps, stratified: gap i is the
    // exponential's quantile at (i + 1/2) / ops, and the round shuffles
    // their order. Every round then offers the same load, kServeRate on
    // average, and differs only in where the bursts fall.
    Random rng(OrderSeed(ctx, 2));
    std::vector<double> gaps(ops);
    const std::vector<std::size_t> slot = Permutation(ops, &rng);
    for (std::size_t i = 0; i < ops; ++i) {
      const double u = (static_cast<double>(slot[i]) + 0.5) /
                       static_cast<double>(ops);
      gaps[i] = -std::log1p(-u) / kServeRate;
    }
    const std::vector<std::size_t> parent_order =
        Permutation(parents.size(), &rng);
    std::size_t next_parent = 0;
    double at = 0.0;
    std::size_t write_slot = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      Arrival& a = arrivals[i];
      if (i % kWriteEvery == 0) write_slot = rng.NextBounded(kWriteEvery);
      at += gaps[i];
      a.at = static_cast<SimTime>(at * static_cast<double>(kSimSecond));
      a.tenant = rng.NextBounded(2);
      a.is_write = i % kWriteEvery == write_slot;
      if (a.is_write) {
        a.ops.resize(kOpsPerWrite);
        for (WriteOp& op : a.ops) {
          if (next_parent == parents.size()) {
            return Status::ResourceExhausted(
                "more inserts per round than pages to spread them over");
          }
          op.parent = parents[parent_order[next_parent++]];
          op.tag = xbid;
          op.text = "bid";
        }
      } else {
        a.read = rng.NextBounded(kServeReads.size());
      }
    }
  }

  TxnManager txn(db, &store.doc);
  ServeOptions options;
  options.tenants.resize(2);
  options.tenants[0].name = "gold";
  options.tenants[0].weight = 4.0;
  options.tenants[0].deadline_slack = kGoldSlack;
  options.tenants[1].name = "bronze";
  options.tenants[1].weight = 1.0;
  options.workload.stats = &store.stats;
  options.workload.txn = &txn;
  // Traced run only: host time of every pull, split afterwards into read
  // and write pulls by the job's kind.
  std::vector<std::pair<std::size_t, std::int64_t>> pulls;
  if (ctx.spans->enabled()) {
    options.workload.on_pull = [&pulls](std::size_t job, std::size_t) {
      pulls.emplace_back(job, SpanRecorder::Now());
    };
  }
  Server server(db, store.doc, options);

  ServeResult result;
  const Stopwatch watch;
  {
    ScopedSpan round(ctx.spans, "bench.round");
    for (Arrival& a : arrivals) {
      ScopedSpan span(ctx.spans, "serve.submit");
      NAVPATH_RETURN_NOT_OK(
          a.is_write
              ? server.SubmitWrite(a.tenant, std::move(a.ops), a.at)
              : server.Submit(a.tenant, kServeReads[a.read], PlanOptions{},
                              a.at));
    }
    ScopedSpan run(ctx.spans, "serve.run");
    NAVPATH_ASSIGN_OR_RETURN(result, server.Run());
    const std::int64_t end = SpanRecorder::Now();
    for (std::size_t i = 0; i < pulls.size(); ++i) {
      const bool write = result.workload.queries[pulls[i].first].is_write;
      ctx.spans->Add(write ? "serve.write_pull" : "serve.read_pull",
                     pulls[i].second,
                     i + 1 < pulls.size() ? pulls[i + 1].second : end);
    }
  }
  r->host = watch.Elapsed();

  ScopedSpan check(ctx.spans, "bench.check");
  Digest digest;
  std::size_t job = 0;  // executor jobs are the non-shed submissions
  for (std::size_t sub = 0; sub < result.outcomes.size(); ++sub) {
    const ServeOutcome& out = result.outcomes[sub];
    const Arrival& a = arrivals[sub];
    ++r->attempted;
    digest.Add(out.shed);
    digest.Add(out.count);
    digest.Add(out.finished_at);
    digest.Add(out.commit_seq);
    if (out.shed) {
      r->Fail("shed: " + out.status.ToString());
      r->sums["serve.shed"] += 1;
      continue;
    }
    const WorkloadQueryResult& q = result.workload.queries[job++];
    const double wait = SimClock::ToSeconds(out.admitted_at - out.arrival);
    r->samples["serve.queue_wait_s"].push_back(wait);
    if (a.is_write) {
      r->sums["txn.writes"] += 1;
      r->sums["txn.conflict_aborts"] += static_cast<double>(q.aborts);
      if (!out.status.ok() || out.commit_seq == 0) {
        r->Fail("write: " + out.status.ToString());
        continue;
      }
      ++r->completed;
      ++r->commits;
      r->samples["txn.writer_s"].push_back(
          SimClock::ToSeconds(out.turnaround()));
      continue;
    }
    const std::string& text = kServeReads[a.read];
    const std::uint64_t expected = text == kXbidProbe
                                       ? kOpsPerWrite * q.snapshot_seq
                                       : store.oracle.at(text);
    CheckRead(text, expected, q, r);
    if (out.degraded) r->sums["serve.degraded"] += 1;
    r->samples[a.tenant == 0 ? "serve.gold_s" : "serve.bronze_s"].push_back(
        SimClock::ToSeconds(out.turnaround()));
  }
  if (txn.retired_pending() != 0) {
    r->Fail(std::to_string(txn.retired_pending()) +
            " page versions unreclaimed after the workload drained");
  }
  r->sums["txn.unreclaimed_versions"] +=
      static_cast<double>(txn.retired_pending());
  r->sums["serve.state_changes"] += static_cast<double>(
      result.metrics.CounterOr("serve.state.degrade_entered") +
      result.metrics.CounterOr("serve.state.shed_entered") +
      result.metrics.CounterOr("serve.state.recovered"));
  digest.Add(result.workload.metrics);
  r->digest = digest.h;
  r->sim_span_s = result.workload.total_seconds();
  RecordWorkload(result.workload, r);
  return Status::OK();
}

// --- paper_single --------------------------------------------------------
//
// The paper's discipline: one query at a time through ExecuteQuery, cold
// buffer before each, the cost model choosing the plan kind with the path
// summary on (as the navq shell does).

bool AnsweredBySummary(const PathSummary* summary, const PathQuery& query) {
  if (summary == nullptr || query.mode == PathQuery::Mode::kNodes) {
    return false;
  }
  for (const LocationPath& path : query.paths) {
    if (!PathSummary::Supports(path) || !summary->Match(path).applicable) {
      return false;
    }
  }
  return true;
}

Status RunPaperSingle(const RoundContext& ctx, RoundResult* r) {
  Store store;
  NAVPATH_RETURN_NOT_OK(BuildStore(kLargeScale, kPaperQueries, ctx, r, &store));
  Database* db = store.db.get();

  Random rng(OrderSeed(ctx, 3));
  const std::vector<std::size_t> order =
      BalancedOrder(kPaperQueries.size(), ctx.fast ? 1 : kPaperPasses, &rng);

  struct Run {
    PathQuery query;
    PlanKind kind = PlanKind::kXSchedule;
    QueryRunResult result;
  };
  std::vector<Run> runs(order.size());
  const Stopwatch watch;
  {
    ScopedSpan round(ctx.spans, "bench.round");
    for (std::size_t i = 0; i < order.size(); ++i) {
      Run& run = runs[i];
      {
        ScopedSpan span(ctx.spans, "xpath.parse");
        NAVPATH_ASSIGN_OR_RETURN(
            run.query, ParseQuery(kPaperQueries[order[i]], db->tags()));
      }
      {
        ScopedSpan span(ctx.spans, "compiler.choose");
        run.kind = ChoosePlanKind(store.stats, run.query,
                                  db->options().disk_model, db->costs(),
                                  db->summary());
      }
      ExecuteOptions exec;
      exec.plan.kind = run.kind;
      exec.collect_nodes = run.query.mode == PathQuery::Mode::kNodes;
      ScopedSpan span(ctx.spans, "compiler.execute");
      NAVPATH_ASSIGN_OR_RETURN(run.result,
                               ExecuteQuery(db, store.doc, run.query, exec));
    }
  }
  r->host = watch.Elapsed();

  ScopedSpan check(ctx.spans, "bench.check");
  Digest digest;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    const std::string& text = kPaperQueries[order[i]];
    const std::uint64_t expected = store.oracle.at(text);
    const bool node_mode = run.query.mode == PathQuery::Mode::kNodes;
    ++r->attempted;
    if (run.result.count != expected ||
        (node_mode && run.result.nodes.size() != expected)) {
      r->Fail(text + ": counted " + std::to_string(run.result.count) +
              ", expected " + std::to_string(expected));
    } else {
      ++r->completed;
      r->read_turnaround_s.push_back(run.result.total_seconds());
    }
    r->sums["queries"] += 1;
    r->sums["results"] += static_cast<double>(run.result.count);
    r->sums[run.kind == PlanKind::kXScan       ? "compiler.plan_xscan"
            : run.kind == PlanKind::kXSchedule ? "compiler.plan_xschedule"
                                               : "compiler.plan_simple"] += 1;
    if (AnsweredBySummary(db->summary(), run.query)) {
      r->sums["compiler.summary_answered"] += 1;
    }
    r->sim_span_s += run.result.total_seconds();
    r->sums["sim_cpu_s"] += run.result.cpu_seconds();
    r->sums["sim_io_wait_s"] +=
        run.result.total_seconds() - run.result.cpu_seconds();
    AccumulateMetrics(&r->metrics, run.result.metrics);
    digest.Add(run.result.count);
    digest.Add(run.result.total_time);
    digest.Add(run.result.metrics);
  }
  r->digest = digest.h;
  return Status::OK();
}

// --- shard_batch ---------------------------------------------------------
//
// The scan mix over a K=4 path-partitioned store at the same 1000-page
// aggregate buffer, submitted as one batch at t=0 through
// ShardedWorkloadExecutor; results merge by order key.

Status RunShardBatch(const RoundContext& ctx, RoundResult* r) {
  ShardOptions shard_options;
  shard_options.shards = kShards;
  shard_options.db = StoreOptions(kBufferPages / kShards);
  shard_options.source = [&ctx](TagRegistry* tags) {
    ScopedSpan span(ctx.spans, "xmark.generate");
    return GenerateXMark(XMark(kLargeScale, DocSeed(ctx)), tags);
  };
  const std::size_t page_size = shard_options.db.page_size;
  shard_options.clustering = [page_size] { return Clustering(page_size); };

  std::unique_ptr<ShardedStore> store;
  {
    ScopedSpan setup(ctx.spans, "bench.setup");
    const Stopwatch watch;
    ScopedSpan span(ctx.spans, "shard.build");
    NAVPATH_ASSIGN_OR_RETURN(store, ShardedStore::Build(shard_options));
    r->setup = watch.Elapsed();
  }
  for (std::size_t k = 0; k < store->shard_count(); ++k) {
    r->sums["store.pages"] += static_cast<double>(store->doc(k).pages);
  }
  TagRegistry oracle_tags;
  const Oracle oracle = OracleCounts(
      GenerateXMark(XMark(kLargeScale, DocSeed(ctx)), &oracle_tags),
      &oracle_tags, kScanMix);

  Random rng(OrderSeed(ctx, 4));
  std::vector<std::size_t> order =
      BalancedOrder(kScanMix.size(), ctx.fast ? 2 : kScanMix.size(), &rng);

  WorkloadOptions options;
  options.collect_nodes = true;  // exercise the order-key merge
  ShardedWorkloadExecutor executor(store.get(), options);
  ShardWorkloadResult result;
  const Stopwatch watch;
  {
    ScopedSpan round(ctx.spans, "bench.round");
    for (const std::size_t text : order) {
      ScopedSpan span(ctx.spans, "shard.add");
      NAVPATH_RETURN_NOT_OK(executor.Add(kScanMix[text], PlanOptions{}));
    }
    ScopedSpan span(ctx.spans, "shard.run");
    NAVPATH_ASSIGN_OR_RETURN(result, executor.Run());
  }
  r->host = watch.Elapsed();

  ScopedSpan check(ctx.spans, "bench.check");
  Digest digest;
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    const WorkloadQueryResult& q = result.queries[i];
    const std::string& text = kScanMix[order[i]];
    ++r->attempted;
    bool ordered = q.nodes.size() == q.count;
    for (std::size_t n = 1; ordered && n < q.nodes.size(); ++n) {
      ordered = q.nodes[n - 1].order < q.nodes[n].order;
    }
    if (!ordered) {
      r->Fail(text + ": merged nodes not distinct and in document order");
    }
    CheckRead(text, oracle.at(text), q, r);
    digest.Add(q.count);
    digest.Add(q.finished_at);
  }
  digest.Add(result.metrics);
  r->digest = digest.h;
  r->sim_span_s = SimClock::ToSeconds(result.total_time);
  AccumulateMetrics(&r->metrics, result.metrics);
  for (const WorkloadResult& shard : result.shards) {
    r->sums["sim_cpu_s"] += SimClock::ToSeconds(shard.cpu_time);
    r->sums["sim_io_wait_s"] +=
        SimClock::ToSeconds(shard.total_time - shard.cpu_time);
    r->sums["sched.decisions"] +=
        static_cast<double>(shard.scheduler.CounterOr("sched.decisions"));
    if (const HistogramSummary* depth =
            shard.scheduler.FindHistogram("sched.pool_depth")) {
      r->samples["sched.pool_depth_p50"].push_back(
          static_cast<double>(depth->p50));
    }
  }
  r->sums["shard.fanout"] +=
      static_cast<double>(result.scheduler.CounterOr("shard.fanout"));
  r->sums["shard.merge_duplicates"] += static_cast<double>(
      result.scheduler.CounterOr("shard.merge.duplicates"));
  if (const HistogramSummary* width =
          result.scheduler.FindHistogram("shard.fanout.width")) {
    r->samples["shard.fanout_width_mean"].push_back(width->mean);
  }
  if (!result.utilization.empty()) {
    r->samples["shard.util_min"].push_back(*std::min_element(
        result.utilization.begin(), result.utilization.end()));
    r->samples["shard.util_max"].push_back(*std::max_element(
        result.utilization.begin(), result.utilization.end()));
  }
  return Status::OK();
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // Simulated rounds: enough samples for 10 beyond the p95 and a
      // spread between seeds well inside the bounds, in about 15 s.
      {"scan_closed", 5, RunScanClosed},
      {"serve_open", 6, RunServeOpen},
      {"paper_single", 8, RunPaperSingle},
      {"shard_batch", 4, RunShardBatch},
  };
  return workloads;
}

}  // namespace navbench
