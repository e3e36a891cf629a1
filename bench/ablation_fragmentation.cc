// Ablation: physical layout fragmentation (paper Sec. 1: "a document
// import algorithm might regroup nodes ... and incremental updates may
// fragment the physical layout").
//
// The Simple plan's cost tracks fragmentation almost linearly (its access
// order is the logical order); XSchedule's elevator absorbs most of it;
// XScan is immune (a physical scan is sequential whatever the logical
// placement).
#include <cstdio>

#include "benchlib/harness.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.1 : 0.25;
  std::printf("Ablation — layout fragmentation, Q6' at scale %.2f\n", sf);
  PrintTableHeader("Q6' total time vs fragmentation",
                   {"fragmentation", "Simple[s]", "XSchedule[s]",
                    "XScan[s]"});
  for (const double frag : {0.0, 0.15, 0.35, 0.6, 1.0}) {
    FixtureOptions options;
    options.db.import.fragmentation = frag;
    auto fixture = XMarkFixture::Create(sf, options);
    if (!fixture.ok()) {
      std::fprintf(stderr, "FAILED: %s\n",
                   fixture.status().ToString().c_str());
      return 1;
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2f", frag);
    std::vector<std::string> row{buf};
    for (const PlanKind kind :
         {PlanKind::kSimple, PlanKind::kXSchedule, PlanKind::kXScan}) {
      auto result = (*fixture)->Run(kQ6Prime, PaperPlan(kind));
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
