// Ablation: clustering quality (Sec. 3.3).
//
// The method never *requires* a particular clustering, but cluster
// quality determines how much navigation is intra-cluster (cheap) versus
// inter-cluster (scheduled I/O). Subtree clustering maximizes locality;
// document-order segmentation loses some subtree cohesion; round-robin is
// the adversarial worst case where nearly every edge crosses clusters.
#include <cstdio>

#include "benchlib/harness.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.05 : 0.25;
  std::printf("Ablation — clustering policy, Q6' at scale %.2f\n", sf);
  PrintTableHeader("Q6' total time vs clustering policy",
                   {"policy", "pages", "borders", "Simple[s]",
                    "XSchedule[s]", "XScan[s]"});
  for (const char* policy : {"subtree", "doc-order", "random"}) {
    FixtureOptions options;
    options.clustering = policy;
    auto fixture = XMarkFixture::Create(sf, options);
    if (!fixture.ok()) {
      std::fprintf(stderr, "FAILED: %s\n",
                   fixture.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row{
        policy, std::to_string((*fixture)->doc().page_count()),
        std::to_string((*fixture)->doc().border_pairs)};
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
