// Extension: a point query (XMark Q1) via predicate support.
//
//   /site/people/person[@id="personN"]/name
//
// The predicate machinery (segmented plans + store-side existence checks)
// sits around the paper's algebra. Point lookups are the extreme end of
// the selectivity spectrum: navigational plans touch a handful of
// clusters, the scan still reads everything — the strongest version of
// the Q15 shape.
#include <cstdio>

#include "benchlib/harness.h"
#include "xpath/parser.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.1 : 0.5;
  std::printf("Extension — XMark Q1 point query at scale %.2f\n", sf);
  auto fixture = XMarkFixture::Create(sf);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  const std::string query =
      "/site/people/person[@id=\"person42\"]/name";
  std::printf("query: %s\n", query.c_str());
  PrintTableHeader("Q1 across plans",
                   {"plan", "results", "total[s]", "reads"});
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
    auto result = (*fixture)->Run(query, PaperPlan(kind));
    if (!result.ok()) {
      std::fprintf(stderr, "FAILED: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    PrintTableRow({PlanKindName(kind), std::to_string(result->count),
                   FormatSeconds(result->total_seconds()),
                   std::to_string(result->metrics.disk_reads)});
  }
  return 0;
}
