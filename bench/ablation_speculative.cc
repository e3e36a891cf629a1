// Ablation: speculative XSchedule (Sec. 5.4.4).
//
// With `speculative` set, XSchedule emits the same left-incomplete seeds
// XScan produces on every cluster visit, guaranteeing that no cluster is
// visited twice. Paths that bounce between clusters (down, up, down
// again) revisit clusters in plain XSchedule^R mode; the flag trades
// speculation CPU against repeated visits.
#include <cstdio>

#include "benchlib/harness.h"
#include "xpath/parser.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.05 : 0.25;
  std::printf("Ablation — speculative XSchedule at scale %.2f\n", sf);
  auto fixture = XMarkFixture::Create(sf);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  // The revisit-inducing query walks down into items, back up to the
  // region, and down again: clusters are needed at several steps.
  const char* queries[] = {
      kQ6Prime,
      "/site/regions//item/parent::*/item/name",
  };
  PrintTableHeader("XSchedule: speculative off vs on",
                   {"query", "spec", "total[s]", "CPU[s]", "visits",
                    "spec.inst"});
  for (const char* query : queries) {
    for (const bool speculative : {false, true}) {
      PlanOptions plan = PaperPlan(PlanKind::kXSchedule);
      plan.speculative = speculative;
      auto result = (*fixture)->Run(query, plan);
      if (!result.ok()) {
        std::fprintf(stderr, "FAILED: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      PrintTableRow({std::string(query).substr(0, 13), speculative ? "on" : "off",
                     FormatSeconds(result->total_seconds()),
                     FormatSeconds(result->cpu_seconds()),
                     std::to_string(result->metrics.clusters_visited),
                     std::to_string(result->metrics.speculative_instances)});
    }
  }
  return 0;
}
