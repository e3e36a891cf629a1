// The four navbench workloads. A workload runs in rounds: each round
// builds its own store(s) from scratch (timed as set-up), drives one
// batch of operations through navpath's public API (timed as the
// measured phase), and checks every result against the DOM oracle. A
// round depends only on the seed and the round index (together they pick
// the generated XMark document; the round index alone picks the order of
// operations), so its simulated outcome is reproducible exactly; host
// time is whatever the machine gives.
#ifndef NAVBENCH_WORKLOADS_H_
#define NAVBENCH_WORKLOADS_H_

#include <time.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "spans.h"

namespace navbench {

/// Host time of one phase: wall (steady_clock) and the CPU time of this
/// thread. The benchmark is one thread, so CPU time is the simulator's
/// cost without the time other processes on the machine took from it.
struct PhaseTime {
  double wall_s = 0;
  double cpu_s = 0;
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(SpanRecorder::Now()), cpu0_(CpuNow()) {}
  PhaseTime Elapsed() const {
    return {static_cast<double>(SpanRecorder::Now() - wall0_) / 1e9,
            static_cast<double>(CpuNow() - cpu0_) / 1e9};
  }

 private:
  static std::int64_t CpuNow() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }

  std::int64_t wall0_;
  std::int64_t cpu0_;
};

struct RoundResult {
  PhaseTime setup;  // store build(s) of this round
  PhaseTime host;   // measured phase
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // reads + writes that finished
  std::uint64_t failed = 0;     // failed + shed + wrong result
  std::vector<std::string> errors;  // first few failure descriptions

  // Simulated outcome (deterministic per seed and round).
  std::vector<double> read_turnaround_s;
  double sim_span_s = 0;  // makespan, or summed solo times (paper_single)
  std::uint64_t commits = 0;
  std::uint64_t digest = 0;  // FNV-1a over per-op outcomes and metrics

  // Per-layer inputs: summed counters and raw samples, keyed by name.
  navpath::Metrics metrics;
  std::map<std::string, double> sums;
  std::map<std::string, std::vector<double>> samples;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

struct RoundContext {
  std::uint64_t seed = 0;
  std::size_t round = 0;
  bool fast = false;
  SpanRecorder* spans = nullptr;  // disabled outside the traced run
};

struct Workload {
  const char* name;
  std::size_t sim_rounds;  // rounds whose simulated outcome is reported
  navpath::Status (*run)(const RoundContext& ctx, RoundResult* r);
};

const std::vector<Workload>& Workloads();

}  // namespace navbench

#endif  // NAVBENCH_WORKLOADS_H_
