// Extension: query performance on an organically aged document.
//
// The paper motivates cost-sensitive reordering with layouts degraded by
// "incremental updates [that] fragment the physical layout" (Sec. 1).
// Here the degradation is produced by the update subsystem itself rather
// than the synthetic permutation knob: a pristine import is aged with
// thousands of random element insertions (which spill into fresh
// fragments and split pages), then the paper's Q6' is measured before and
// after. The navigational plans degrade; the scan stays flat.
#include <cstdio>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "store/update.h"
#include "store/verify.h"
#include "xpath/parser.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.02 : 0.05;
  const int kInsertions = FastBenchMode() ? 500 : 2000;
  std::printf("Extension — aging by updates, Q6' at scale %.2f\n", sf);

  FixtureOptions options;
  options.db.import.fragmentation = 0.0;  // pristine import
  auto fixture = XMarkFixture::Create(sf, options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  Database* db = (*fixture)->db();
  ImportedDocument doc = (*fixture)->doc();

  PrintTableHeader("Q6' before/after aging",
                   {"state", "pages", "Simple[s]", "XSchedule[s]",
                    "XScan[s]"});

  auto measure = [&](const char* label) -> int {
    std::vector<std::string> row{label, std::to_string(doc.page_count())};
    auto query = ParseQuery(kQ6Prime, db->tags());
    query.status().AbortIfNotOk();
    for (const PlanKind kind :
         {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
      ExecuteOptions exec;
      exec.plan = PaperPlan(kind);
      auto result = ExecuteQuery(db, doc, *query, exec);
      if (!result.ok()) {
        std::fprintf(stderr, "FAILED: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      row.push_back(FormatSeconds(result->total_seconds()));
    }
    PrintTableRow(row);
    return 0;
  };

  if (measure("pristine") != 0) return 1;

  // Age the document: insert mailbox mails under random items. Collect
  // item NodeIDs via one scan-backed query first.
  auto item_path = ParsePath("/site/regions//item", db->tags());
  item_path.status().AbortIfNotOk();
  ExecuteOptions exec;
  exec.plan = PaperPlan(PlanKind::kXScan);
  exec.collect_nodes = true;
  auto items = ExecutePath(db, doc, *item_path, exec);
  items.status().AbortIfNotOk();

  DocumentUpdater updater(db, &doc);
  const TagId mail_tag = db->tags()->Intern("mail");
  Random rng(77);
  int inserted = 0;
  for (int i = 0; i < kInsertions; ++i) {
    const LogicalNode& item =
        items->nodes[rng.NextBounded(items->nodes.size())];
    auto result = updater.InsertElement(
        item.id, kInvalidNodeID, mail_tag,
        "late breaking correspondence about this item");
    if (result.ok()) ++inserted;
  }
  std::printf("\ninserted %d elements (%llu border pairs now)\n", inserted,
              static_cast<unsigned long long>(doc.border_pairs));
  auto report = VerifyStore(db, doc);
  if (!report.ok()) {
    std::fprintf(stderr, "fsck FAILED after aging: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  if (measure("aged") != 0) return 1;
  std::printf(
      "\nshape: navigational plans degrade with update-driven scatter; the\n"
      "sequential scan's cost tracks only the page count.\n");
  return 0;
}
