#include "benchlib/harness.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "xpath/parser.h"

namespace navpath {

namespace {

/// The fixture's clustering policies, as a per-import factory (the
/// sharded fixture builds one policy per shard import). Returns a null
/// factory for unknown names.
std::function<std::unique_ptr<ClusteringPolicy>()> ClusteringFactory(
    const std::string& name, std::size_t page_size) {
  const std::size_t budget = page_size - page_size / 8;  // keep slack
  if (name == "subtree") {
    return [budget] {
      return std::unique_ptr<ClusteringPolicy>(
          std::make_unique<SubtreeClusteringPolicy>(budget));
    };
  }
  if (name == "doc-order") {
    return [budget] {
      return std::unique_ptr<ClusteringPolicy>(
          std::make_unique<DocOrderClusteringPolicy>(budget));
    };
  }
  if (name == "round-robin") {
    return [budget] {
      return std::unique_ptr<ClusteringPolicy>(
          std::make_unique<RoundRobinClusteringPolicy>(budget));
    };
  }
  if (name == "random") {
    return [budget] {
      return std::unique_ptr<ClusteringPolicy>(
          std::make_unique<RandomClusteringPolicy>(budget, 7));
    };
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<XMarkFixture>> XMarkFixture::Create(
    double scale, FixtureOptions options) {
  options.xmark.scale = scale;
  auto fixture = std::unique_ptr<XMarkFixture>(new XMarkFixture(options));
  const DomTree tree = GenerateXMark(options.xmark, fixture->db_.tags());

  const auto factory =
      ClusteringFactory(options.clustering, options.db.page_size);
  if (!factory) {
    return Status::InvalidArgument("unknown clustering policy: " +
                                   options.clustering);
  }
  const std::unique_ptr<ClusteringPolicy> policy = factory();
  NAVPATH_ASSIGN_OR_RETURN(fixture->doc_,
                           fixture->db_.Import(tree, policy.get()));
  // The import's path summary already holds every count; only a fixture
  // imported without one tallies the tree.
  const PathSummary* summary = fixture->db_.summary();
  fixture->stats_ =
      summary != nullptr
          ? DocumentStats::FromSummary(*summary, fixture->doc_)
          : DocumentStats::Build(tree, fixture->doc_, options.db.page_size);
  return fixture;
}

Result<std::unique_ptr<ShardedStore>> CreateShardedXMark(
    double scale, std::size_t shards, FixtureOptions options) {
  options.xmark.scale = scale;
  ShardOptions shard_options;
  shard_options.shards = shards;
  shard_options.db = options.db;
  shard_options.source = [xmark = options.xmark](TagRegistry* tags) {
    return GenerateXMark(xmark, tags);
  };
  shard_options.clustering =
      ClusteringFactory(options.clustering, options.db.page_size);
  if (!shard_options.clustering) {
    return Status::InvalidArgument("unknown clustering policy: " +
                                   options.clustering);
  }
  return ShardedStore::Build(shard_options);
}

Result<QueryRunResult> XMarkFixture::RunOptimized(const std::string& query,
                                                  PlanKind* chosen) {
  NAVPATH_ASSIGN_OR_RETURN(const PathQuery parsed,
                           ParseQuery(query, db_.tags()));
  const PlanKind kind = ChoosePlanKind(stats_, parsed,
                                       db_.options().disk_model, db_.costs());
  if (chosen != nullptr) *chosen = kind;
  return Run(query, PaperPlan(kind));
}

Result<QueryRunResult> XMarkFixture::Run(const std::string& query,
                                         const PlanOptions& plan) {
  NAVPATH_ASSIGN_OR_RETURN(const PathQuery parsed,
                           ParseQuery(query, db_.tags()));
  ExecuteOptions exec;
  exec.plan = plan;
  exec.collect_nodes = parsed.mode == PathQuery::Mode::kNodes;
  return ExecuteQuery(&db_, doc_, parsed, exec);
}

Result<QueryRunResult> XMarkFixture::RunExplain(const std::string& query,
                                                const PlanOptions& plan) {
  NAVPATH_ASSIGN_OR_RETURN(const PathQuery parsed,
                           ParseQuery(query, db_.tags()));
  ExecuteOptions exec;
  exec.plan = plan;
  exec.collect_nodes = parsed.mode == PathQuery::Mode::kNodes;
  exec.explain = true;
  exec.stats = &stats_;
  return ExecuteQuery(&db_, doc_, parsed, exec);
}

PlanOptions PaperPlan(PlanKind kind) {
  PlanOptions options;
  options.kind = kind;
  options.speculative = false;  // Sec. 6.2: XSchedule, speculative off
  options.queue_k = 100;        // Sec. 5.3.4 default
  options.s_budget = 0;
  // The paper's experiments measure the navigational primitives; the
  // path-summary synopsis (post-paper extension) would answer its count
  // queries without navigating. Keep paper-series benches byte-identical.
  options.use_summary = false;
  return options;
}

std::vector<double> PaperScaleFactors() {
  return {0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
}

bool FastBenchMode() {
  const char* env = std::getenv("NAVPATH_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

std::vector<double> ActiveScaleFactors() {
  if (FastBenchMode()) return {0.1, 0.25, 0.5};
  return PaperScaleFactors();
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%16s", "----");
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%16s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds);
  return buf;
}

std::string FormatPercent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
  return buf;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_in_scope_.empty()) return;
  if (first_in_scope_.back()) {
    first_in_scope_.back() = false;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  first_in_scope_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  first_in_scope_.pop_back();
  out_ += ']';
  return *this;
}

namespace {

void AppendJsonString(std::string* out, const std::string& v) {
  *out += '"';
  for (const char c : v) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
  *out += '"';
}

}  // namespace

JsonWriter& JsonWriter::Key(const std::string& name) {
  Separate();
  AppendJsonString(&out_, name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  Separate();
  AppendJsonString(&out_, v);
  return *this;
}

JsonWriter& JsonWriter::Value(const char* v) {
  return Value(std::string(v));
}

JsonWriter& JsonWriter::Value(double v) {
  Separate();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

std::string BenchTrajectoryPath(const std::string& name) {
  const char* dir = std::getenv("NAVPATH_BENCH_DIR");
  if (dir == nullptr || dir[0] == '\0') return name;
  std::string path(dir);
  if (path.back() != '/') path += '/';
  return path + name;
}

std::string TraceCaptureDir() {
  const char* dir = std::getenv("NAVPATH_TRACE_DIR");
  return dir == nullptr ? std::string() : std::string(dir);
}

bool EnableTraceCapture(Database* db) {
  if (TraceCaptureDir().empty()) return false;
  return db->EnableTracing() != nullptr;
}

Status WriteTraceCapture(Database* db, const std::string& name) {
  const std::string dir = TraceCaptureDir();
  if (dir.empty() || db->tracer() == nullptr) return Status::OK();
  std::string path = dir;
  if (path.back() != '/') path += '/';
  path += name;
  return WriteTextFile(path, db->tracer()->ToJson());
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

bool WriteWorkloadSection(const std::string& section,
                          const std::string& json) {
  const std::string path = BenchTrajectoryPath("BENCH_workload.json");
  const std::string key = "\"" + section + "\":";
  std::string doc;
  if (std::ifstream in(path, std::ios::binary); in) {
    doc.assign(std::istreambuf_iterator<char>(in), {});
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    if (const std::size_t at = doc.find("," + key); at != std::string::npos) {
      doc.resize(at);
      doc += "}";
    }
  }
  if (!doc.empty() && doc.back() == '}') {
    doc.pop_back();
    doc += "," + key + json + "}\n";
  } else {
    doc = "{\"bench\":\"workload_" + section + "\",\"schema_version\":1," +
          key + json + "}\n";
  }
  const Status wrote = WriteTextFile(path, doc);
  if (!wrote.ok()) {
    std::fprintf(stderr, "trajectory: %s\n", wrote.ToString().c_str());
    return false;
  }
  std::printf("wrote %s (%s section)\n", path.c_str(), section.c_str());
  return true;
}

}  // namespace navpath
