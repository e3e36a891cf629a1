// Example 1 (Fig. 1): the motivating observation. A naive navigational
// evaluation touches disk pages in logical (document) order, which on a
// fragmented layout means random head movement, while the reordering
// I/O operator turns the same page set into (mostly) ascending sweeps.
//
// Prints the first page accesses of Simple vs XSchedule for Q6' and the
// resulting seek totals.
#include <cstdio>
#include <vector>

#include "benchlib/harness.h"

int main() {
  using namespace navpath;
  std::printf("Example 1 reproduction — physical access order, query %s\n",
              kQ6Prime);
  FixtureOptions options;
  options.db.import.fragmentation = 0.5;  // an aged layout
  auto fixture = XMarkFixture::Create(0.1, options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }

  for (const PlanKind kind : {PlanKind::kSimple, PlanKind::kXSchedule}) {
    std::vector<PageId> trace;
    (*fixture)->db()->disk()->SetTrace(&trace);
    auto result = (*fixture)->Run(kQ6Prime, PaperPlan(kind));
    (*fixture)->db()->disk()->SetTrace(nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "FAILED: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::uint64_t backward = 0, jumps = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      if (trace[i] < trace[i - 1]) {
        ++backward;
      } else if (trace[i] > trace[i - 1] + 1) {
        ++jumps;
      }
    }
    std::printf("\n%s: %zu page accesses, first 24:\n  ", PlanKindName(kind),
                trace.size());
    for (std::size_t i = 0; i < trace.size() && i < 24; ++i) {
      std::printf("%u ", trace[i]);
    }
    std::printf(
        "\n  backward moves: %llu, forward jumps: %llu, total seek "
        "distance: %llu pages, total time %.2fs\n",
        static_cast<unsigned long long>(backward),
        static_cast<unsigned long long>(jumps),
        static_cast<unsigned long long>(result->metrics.disk_seek_pages),
        result->total_seconds());
  }
  return 0;
}
