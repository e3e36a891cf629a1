// Ablation: buffer pool capacity (the paper fixes 1000 pages, Sec. 6.1).
//
// Q7 issues three full-document location paths in one query, so plans
// whose second and third paths can reuse buffered pages benefit from a
// larger pool. XScan's sequential cost is insensitive until the whole
// document fits.
#include <cstdio>

#include "benchlib/harness.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.1 : 0.5;
  std::printf("Ablation — buffer capacity, Q7 at scale %.2f\n", sf);
  PrintTableHeader("Q7 total time vs buffer pages",
                   {"buffer", "Simple[s]", "XSchedule[s]", "XScan[s]"});
  // The last entries exceed the document size so repeated sweeps (Q7 has
  // three paths) start hitting the buffer.
  for (const std::size_t pages : {50, 250, 1000, 2000, 4000, 6000, 12000}) {
    FixtureOptions options;
    options.db.buffer_pages = pages;
    auto fixture = XMarkFixture::Create(sf, options);
    if (!fixture.ok()) {
      std::fprintf(stderr, "FAILED: %s\n",
                   fixture.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row{std::to_string(pages)};
    for (const PlanKind kind :
         {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
      auto result = (*fixture)->Run(kQ7, PaperPlan(kind));
      if (!result.ok()) {
        std::fprintf(stderr, "FAILED: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      row.push_back(FormatSeconds(result->total_seconds()));
    }
    PrintTableRow(row);
  }
  return 0;
}
