// Ablation: XSchedule's desired minimum queue size k (Sec. 5.3.4).
//
// k controls how many right ends are queued before serving, i.e. how many
// scheduling alternatives the asynchronous I/O subsystem sees up front.
// The paper argues the choice matters little for single-context location
// paths (crossings, not contexts, fill the queue); this experiment
// verifies that claim.
#include <cstdio>

#include "benchlib/harness.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.1 : 0.5;
  std::printf("Ablation — XSchedule queue size k, Q6' at scale %.2f\n", sf);
  auto fixture = XMarkFixture::Create(sf);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  PrintTableHeader("XSchedule total time vs k",
                   {"k", "total[s]", "CPU[s]", "async_reord"});
  for (const std::size_t k : {1, 2, 5, 10, 25, 100, 400, 1000}) {
    PlanOptions plan = PaperPlan(PlanKind::kXSchedule);
    plan.queue_k = k;
    auto result = (*fixture)->Run(kQ6Prime, plan);
    if (!result.ok()) {
      std::fprintf(stderr, "FAILED: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    PrintTableRow({std::to_string(k), FormatSeconds(result->total_seconds()),
                   FormatSeconds(result->cpu_seconds()),
                   std::to_string(result->metrics.async_reorderings)});
  }
  return 0;
}
