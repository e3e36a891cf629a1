// navq — a small interactive shell over a navpath database.
//
// Create a database:   ./build/examples/navq --generate 0.05 /tmp/x.nvph
// Query it:            ./build/examples/navq /tmp/x.nvph
//
// At the prompt, enter XPath queries (count(...) or node paths), or:
//   \plan simple|xschedule|xscan|auto    choose the physical plan
//   \stats                               document statistics
//   \quit                                exit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "benchlib/harness.h"
#include "store/export.h"
#include "store/persistence.h"
#include "store/verify.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace {

using namespace navpath;

int Generate(double scale, const std::string& path) {
  auto fixture = XMarkFixture::Create(scale);
  if (!fixture.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  const Status saved =
      SaveDatabase((*fixture)->db(), (*fixture)->doc(), path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u pages, %llu elements, %llu attributes\n",
              path.c_str(), (*fixture)->doc().page_count(),
              static_cast<unsigned long long>(
                  (*fixture)->doc().core_records),
              static_cast<unsigned long long>(
                  (*fixture)->doc().attribute_records));
  return 0;
}

int Shell(const std::string& path) {
  auto loaded = LoadDatabase(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Database* db = loaded->db.get();
  const ImportedDocument& doc = loaded->doc;
  std::printf("opened %s: %u pages, %llu elements\n", path.c_str(),
              doc.page_count(),
              static_cast<unsigned long long>(doc.core_records));

  // Statistics for the optimizer: reconstruct the logical tree once.
  std::printf("building statistics for the cost-based optimizer...\n");
  DocumentStats stats;
  {
    auto text = ExportDocument(db, doc);
    if (!text.ok()) {
      std::fprintf(stderr, "statistics failed: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    // A document nested deeper than kMaxXmlDepth does not re-parse.
    auto tree = ParseXml(*text, db->tags());
    if (!tree.ok()) {
      std::fprintf(stderr, "statistics failed: %s\n",
                   tree.status().ToString().c_str());
      return 1;
    }
    stats = DocumentStats::Build(*tree, doc, db->options().page_size);
    db->ResetMeasurement().AbortIfNotOk();
  }

  std::string plan_mode = "auto";
  std::string line;
  std::printf("navq> ");
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      std::printf("navq> ");
      continue;
    }
    if (line == "\\quit" || line == "\\q") break;
    if (line.rfind("\\plan ", 0) == 0) {
      plan_mode = line.substr(6);
      std::printf("plan mode: %s\nnavq> ", plan_mode.c_str());
      continue;
    }
    if (line == "\\stats") {
      auto report = VerifyStore(db, doc);
      if (report.ok()) {
        std::printf("pages=%llu cores=%llu attrs=%llu borders=%llu (fsck OK)\n",
                    static_cast<unsigned long long>(report->pages),
                    static_cast<unsigned long long>(report->core_records),
                    static_cast<unsigned long long>(
                        report->attribute_records),
                    static_cast<unsigned long long>(report->border_records));
      } else {
        std::printf("fsck FAILED: %s\n", report.status().ToString().c_str());
      }
      std::printf("navq> ");
      continue;
    }

    auto query = ParseQuery(line, db->tags());
    if (!query.ok()) {
      std::printf("parse error: %s\nnavq> ",
                  query.status().ToString().c_str());
      continue;
    }
    PlanKind kind = PlanKind::kXSchedule;
    if (plan_mode == "simple") {
      kind = PlanKind::kSimple;
    } else if (plan_mode == "xscan") {
      kind = PlanKind::kXScan;
    } else if (plan_mode == "auto") {
      kind = ChoosePlanKind(stats, *query, db->options().disk_model,
                            db->costs());
    }

    ExecuteOptions exec;
    exec.plan = PaperPlan(kind);
    // Unlike the paper-series benches, the shell wants the synopsis:
    // supported count()/exists() queries answer without touching disk.
    exec.plan.use_summary = true;
    exec.collect_nodes = query->mode == PathQuery::Mode::kNodes;
    auto result = ExecuteQuery(db, doc, *query, exec);
    if (!result.ok()) {
      std::printf("error: %s\nnavq> ", result.status().ToString().c_str());
      continue;
    }
    std::printf("[%s] %llu result(s) in %.3f simulated s "
                "(%llu reads, %llu hits)\n",
                PlanKindName(kind),
                static_cast<unsigned long long>(result->count),
                result->total_seconds(),
                static_cast<unsigned long long>(result->metrics.disk_reads),
                static_cast<unsigned long long>(result->metrics.buffer_hits));
    for (std::size_t i = 0; i < result->nodes.size() && i < 10; ++i) {
      std::printf("  node %s @%llu\n",
                  result->nodes[i].id.ToString().c_str(),
                  static_cast<unsigned long long>(result->nodes[i].order));
    }
    if (result->nodes.size() > 10) {
      std::printf("  ... %zu more\n", result->nodes.size() - 10);
    }
    std::printf("navq> ");
  }
  std::printf("bye\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--generate") == 0) {
    return Generate(std::atof(argv[2]), argv[3]);
  }
  if (argc == 2) return Shell(argv[1]);
  std::fprintf(stderr,
               "usage: %s <db.nvph>\n"
               "       %s --generate <scale> <db.nvph>\n",
               argv[0], argv[0]);
  return 2;
}
