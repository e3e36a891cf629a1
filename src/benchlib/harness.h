// Shared benchmark harness: XMark fixtures and paper-style table output.
#ifndef NAVPATH_BENCHLIB_HARNESS_H_
#define NAVPATH_BENCHLIB_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/cost_model.h"
#include "compiler/executor.h"
#include "observe/metrics_registry.h"
#include "shard/sharded_store.h"
#include "store/database.h"
#include "xmark/generator.h"

namespace navpath {

// The paper's evaluated queries (Tab. 2).
inline constexpr const char* kQ6Prime = "count(/site/regions//item)";
inline constexpr const char* kQ7 =
    "count(/site//description)+count(/site//annotation)+"
    "count(/site//email)";
inline constexpr const char* kQ15 =
    "/site/closed_auctions/closed_auction/annotation/description/parlist/"
    "listitem/parlist/listitem/text/emph/keyword/bold";

struct FixtureOptions {
  FixtureOptions() {
    // Benchmarks run on a moderately aged physical layout (see
    // ImportOptions::fragmentation); tests use pristine layouts.
    db.import.fragmentation = 0.35;
  }

  DatabaseOptions db;
  XMarkOptions xmark;
  /// Clustering policy: "subtree" (default), "doc-order", "round-robin",
  /// "random".
  std::string clustering = "subtree";
};

/// A database with one imported XMark document at a given scale factor.
class XMarkFixture {
 public:
  static Result<std::unique_ptr<XMarkFixture>> Create(
      double scale, FixtureOptions options = {});

  Database* db() { return &db_; }
  const ImportedDocument& doc() const { return doc_; }
  /// Mutable catalog handle for benches that run write transactions
  /// (TxnManager keeps the canonical document in sync with commits).
  ImportedDocument* mutable_doc() { return &doc_; }
  /// Cardinality statistics for cost-based plan choice.
  const DocumentStats& stats() const { return stats_; }

  /// Parses and runs `query` with `plan` (cold buffer).
  Result<QueryRunResult> Run(const std::string& query,
                             const PlanOptions& plan);

  /// Like Run, but with EXPLAIN ANALYZE enabled: the result carries a
  /// QueryExplain with estimated (cost model) vs. actual cardinalities.
  Result<QueryRunResult> RunExplain(const std::string& query,
                                    const PlanOptions& plan);

  /// Lets the cost model pick the I/O operator, then runs the query.
  Result<QueryRunResult> RunOptimized(const std::string& query,
                                      PlanKind* chosen = nullptr);

 private:
  explicit XMarkFixture(const FixtureOptions& options) : db_(options.db) {}

  Database db_;
  ImportedDocument doc_;
  DocumentStats stats_;
};

/// Makes a PlanOptions for one of the three paper plans. XSchedule runs
/// with speculative=false, matching Sec. 6.2.
PlanOptions PaperPlan(PlanKind kind);

/// The paper's scale-factor sweep (Sec. 6.2).
std::vector<double> PaperScaleFactors();

/// Reduced sweep for quick smoke runs (honors NAVPATH_BENCH_FAST=1).
std::vector<double> ActiveScaleFactors();

/// True when the environment asks for a reduced benchmark run.
bool FastBenchMode();

/// Sharded variant of XMarkFixture: the same deterministic XMark document
/// (same scale, same generator seed) path-partitioned across `shards`
/// drives. Per-shard DatabaseOptions come from `options.db` verbatim —
/// every shard gets its own `buffer_pages`-page pool, so callers wanting
/// constant aggregate memory divide the total by K. At shards == 1 the
/// single shard is byte-identical to XMarkFixture::Create with the same
/// options (same import, same fault seed, same summary).
Result<std::unique_ptr<ShardedStore>> CreateShardedXMark(
    double scale, std::size_t shards, FixtureOptions options = {});

// --- Output helpers (aligned fixed-width tables) -------------------------

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);
std::string FormatSeconds(double seconds);
std::string FormatPercent(double fraction);

// --- Machine-readable benchmark trajectories ------------------------------
//
// Benchmarks that feed the perf trajectory emit a BENCH_<name>.json file
// next to their table output, so later PRs can diff against a recorded
// baseline. The file layout is documented in DESIGN.md ("Workload layer");
// every file carries a top-level "bench" name and "schema_version".

/// Minimal streaming JSON emitter (objects, arrays, strings, numbers,
/// booleans). The caller is responsible for well-formed nesting; keys are
/// escaped for the characters benchmarks actually use.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v);
  JsonWriter& Value(double v);
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(bool v);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  std::vector<bool> first_in_scope_;
  bool after_key_ = false;
};

/// Destination for a trajectory file `name` (e.g. "BENCH_workload.json"):
/// $NAVPATH_BENCH_DIR/name when the variable is set, ./name otherwise.
std::string BenchTrajectoryPath(const std::string& name);

/// Writes `content` to `path` (overwriting).
Status WriteTextFile(const std::string& path, const std::string& content);

/// Splices `json` into the BENCH_workload.json that workload_throughput
/// writes, as the value of key `section`, dropping that section and every
/// later one from an earlier run; writes a stand-alone document
/// "workload_<section>" when the file is missing. Prints where it wrote,
/// or the error to stderr, and returns whether the write succeeded.
bool WriteWorkloadSection(const std::string& section,
                          const std::string& json);

// --- Trace capture --------------------------------------------------------
//
// Benches and examples opt into Chrome-trace capture via the environment:
// when $NAVPATH_TRACE_DIR is set, EnableTraceCapture turns the database's
// tracer on and WriteTraceCapture drops $NAVPATH_TRACE_DIR/<name> after
// the run. Both are no-ops otherwise (and under -DNAVPATH_OBSERVE=OFF,
// where EnableTracing compiles to a stub), so default bench output is
// untouched.

/// $NAVPATH_TRACE_DIR, or empty when trace capture is off.
std::string TraceCaptureDir();

/// Enables tracing on `db` if $NAVPATH_TRACE_DIR is set. Returns whether
/// tracing is now active.
bool EnableTraceCapture(Database* db);

/// Writes the accumulated trace to $NAVPATH_TRACE_DIR/`name` (e.g.
/// "q7.trace.json"). No-op without an active capture.
Status WriteTraceCapture(Database* db, const std::string& name);

}  // namespace navpath

#endif  // NAVPATH_BENCHLIB_HARNESS_H_
