// navbench: navpath's end-to-end and per-layer benchmark, one workload
// per invocation.
//
//   navbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--fast] [--trace-out <file>]
//
// Runs rounds of the workload (see workloads.h) until `--seconds` of host
// time have passed and at least the workload's simulated-metric rounds are
// done. Simulated metrics (sim_*) come from those first rounds only, so
// they repeat exactly for a seed; setup_s is the median over every round
// and host_qps the rate over all of them together. With --trace 1 each
// round runs twice, untraced and then with
// bench-side spans, and the per-layer metrics plus the tracing overhead
// are reported; the spans go to --trace-out as Chrome trace_event JSON.
// --fast runs one small round (a smoke test of every metric).
//
// Prints one "  <name> <value> <unit>" line per metric and, as the last
// line, {"correct", "attempted", "failed", "metrics"} as JSON; one line
// per round goes to stderr. Exits 1
// when any result is wrong, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "shard/shard_executor.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace navbench;

constexpr std::size_t kMaxKeptSpans = 100000;
// Stop starting rounds past this, whatever --seconds says, so one run
// always ends well inside three minutes.
constexpr double kMaxLoopSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool fast = false;
  std::string trace_out = "navbench-trace.json";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fast") {
      args->fast = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds < 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Nearest-rank quantile, as the repository's benches compute it.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// Host throughput of a run: operations over CPU seconds, summed over all
/// its rounds. On a shared machine the CPU's speed drifts in spells of
/// seconds to minutes (rounds of identical work vary by +-20%, and so
/// does the fastest of three back-to-back runs of one round), so no
/// choice among the rounds filters the drift; a rate over the whole run
/// averages it over as much time as the run has.
struct HostRate {
  double ops = 0.0;
  double seconds = 0.0;
  void Add(std::uint64_t completed, double s) {
    ops += static_cast<double>(completed);
    seconds += s;
  }
  double rate() const { return Div(ops, seconds); }
};

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return Div(sum, static_cast<double>(values.size()));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Merge(const RoundResult& from, RoundResult* into) {
  into->attempted += from.attempted;
  into->completed += from.completed;
  into->failed += from.failed;
  for (const std::string& e : from.errors) {
    if (into->errors.size() < 5) into->errors.push_back(e);
  }
  into->read_turnaround_s.insert(into->read_turnaround_s.end(),
                                 from.read_turnaround_s.begin(),
                                 from.read_turnaround_s.end());
  into->sim_span_s += from.sim_span_s;
  into->commits += from.commits;
  into->digest = into->digest * 1099511628211ull ^ from.digest;
  navpath::AccumulateMetrics(&into->metrics, from.metrics);
  for (const auto& [name, v] : from.sums) into->sums[name] += v;
  into->sums["rounds"] += 1;
  for (const auto& [name, v] : from.samples) {
    std::vector<double>& to = into->samples[name];
    to.insert(to.end(), v.begin(), v.end());
  }
}

RoundResult RunRound(const Workload& workload, const RoundContext& ctx) {
  RoundResult r;
  const navpath::Status status = workload.run(ctx, &r);
  if (!status.ok()) r.Fail("round aborted: " + status.ToString());
  return r;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics from the traced rounds: host time of each public
/// call from the spans, the rest from returned counters.
std::vector<Metric> LayerMetrics(const RoundResult& t,
                                 const SpanRecorder& spans) {
  const auto& totals = spans.totals();
  const auto span = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  // Mean host time per call, in units of `per_second` (1 = s, 1e6 = us).
  const auto mean = [&](const char* name, double per_second) {
    const SpanRecorder::Totals s = span(name);
    return Div(static_cast<double>(s.total_ns) / 1e9 * per_second,
               static_cast<double>(s.count));
  };
  const auto sum = [&](const char* name) {
    const auto it = t.sums.find(name);
    return it == t.sums.end() ? 0.0 : it->second;
  };
  const auto samples = [&](const char* name) {
    const auto it = t.samples.find(name);
    return it == t.samples.end() ? std::vector<double>{} : it->second;
  };
  const navpath::Metrics& m = t.metrics;
  const double ops = static_cast<double>(t.attempted);
  const double queries = sum("queries");
  const double results = sum("results");
  const double rounds = sum("rounds");
  const double commits = static_cast<double>(t.commits);
  const double aborts = sum("txn.conflict_aborts");
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  // shard_batch imports inside ShardedStore::Build, which the bench can
  // only bracket whole: its import time is shard.build's self time (the
  // generations are child spans) per shard.
  const double import_s =
      span("store.import").count > 0
          ? mean("store.import", 1.0)
          : Div(static_cast<double>(span("shard.build").self_ns) / 1e9,
                static_cast<double>(span("xmark.generate").count));

  std::vector<Metric> out = {
      {"xmark.generate_s", mean("xmark.generate", 1.0), "s"},
      {"store.import_s", import_s, "s"},
      {"store.pages", Div(sum("store.pages"), rounds), "count"},
      {"compiler.stats_s", mean("compiler.stats", 1.0), "s"},
      {"xpath.parse_us", mean("xpath.parse", 1e6), "us"},
      {"compiler.choose_us", mean("compiler.choose", 1e6), "us"},
      {"compiler.execute_ms", mean("compiler.execute", 1e3), "ms"},
      {"compiler.plan_xscan", Div(sum("compiler.plan_xscan"), queries),
       "fraction"},
      {"compiler.plan_xschedule", Div(sum("compiler.plan_xschedule"), queries),
       "fraction"},
      {"compiler.plan_simple", Div(sum("compiler.plan_simple"), queries),
       "fraction"},
      {"compiler.summary_answered",
       Div(sum("compiler.summary_answered"), queries), "fraction"},
      {"compiler.admit_us",
       Div(static_cast<double>(span("compiler.add").total_ns +
                               span("compiler.activate").total_ns) / 1e3,
           static_cast<double>(span("compiler.add").count)),
       "us"},
      {"compiler.step_us", mean("compiler.step", 1e6), "us"},
      {"sched.decisions_per_query", Div(sum("sched.decisions"), ops), "count"},
      {"sched.pool_depth_p50", Median(samples("sched.pool_depth_p50")),
       "count"},
      {"algebra.clusters_per_query", Div(u(m.clusters_visited), queries),
       "count"},
      {"algebra.node_tests_per_result", Div(u(m.node_tests), results),
       "count"},
      {"algebra.instances_per_result", Div(u(m.instances_created), results),
       "count"},
      {"algebra.fallback_activations", Div(u(m.fallback_activations), queries),
       "count"},
      {"storage.reads_per_query", Div(u(m.disk_reads), ops), "count"},
      {"storage.seek_pages_per_read", Div(u(m.disk_seek_pages), u(m.disk_reads)),
       "pages"},
      {"storage.merge_frac",
       Div(u(m.requests_merged), u(m.requests_merged + m.async_requests)),
       "fraction"},
      {"storage.elevator_depth_mean", m.MeanElevatorDepth(), "count"},
      {"storage.evictions_per_query", Div(u(m.buffer_evictions), ops),
       "count"},
      {"storage.buffer_hit_rate",
       Div(u(m.buffer_hits), u(m.buffer_hits + m.buffer_misses)), "fraction"},
      {"storage.seq_read_frac", Div(u(m.disk_seq_reads), u(m.disk_reads)),
       "fraction"},
      {"storage.sim_cpu_s", Div(sum("sim_cpu_s"), ops), "sim_s"},
      {"storage.sim_io_wait_s", Div(sum("sim_io_wait_s"), ops), "sim_s"},
      {"storage.writes", Div(u(m.disk_writes), ops), "count"},
      {"storage.priority_jumps", Div(u(m.priority_jumps), ops), "count"},
      {"serve.submit_us", mean("serve.submit", 1e6), "us"},
      {"serve.run_s", mean("serve.run", 1.0), "s"},
      {"serve.read_pull_us", mean("serve.read_pull", 1e6), "us"},
      {"serve.write_pull_us", mean("serve.write_pull", 1e6), "us"},
      {"serve.queue_wait_p50_s", Percentile(samples("serve.queue_wait_s"), 0.5),
       "sim_s"},
      {"serve.queue_wait_p95_s",
       Percentile(samples("serve.queue_wait_s"), 0.95), "sim_s"},
      {"serve.degraded_frac", Div(sum("serve.degraded"), queries), "fraction"},
      {"serve.shed_frac", Div(sum("serve.shed"), ops), "fraction"},
      {"serve.gold_p95_s", Percentile(samples("serve.gold_s"), 0.95), "sim_s"},
      {"serve.bronze_p95_s", Percentile(samples("serve.bronze_s"), 0.95),
       "sim_s"},
      {"serve.state_changes", Div(sum("serve.state_changes"), rounds), "count"},
      {"txn.commit_attempts", Div(commits + aborts, sum("txn.writes")),
       "count"},
      {"txn.conflict_aborts", Div(aborts, rounds), "count"},
      {"txn.abort_rate", Div(aborts, commits + aborts), "fraction"},
      {"txn.writer_p50_s", Percentile(samples("txn.writer_s"), 0.5), "sim_s"},
      {"txn.unreclaimed_versions", sum("txn.unreclaimed_versions"), "count"},
      {"shard.build_s", mean("shard.build", 1.0), "s"},
      {"shard.run_s", mean("shard.run", 1.0), "s"},
      {"shard.fanout_frac", Div(sum("shard.fanout"), queries), "fraction"},
      {"shard.fanout_width_mean", Mean(samples("shard.fanout_width_mean")),
       "count"},
      {"shard.util_min", Mean(samples("shard.util_min")), "fraction"},
      {"shard.util_max", Mean(samples("shard.util_max")), "fraction"},
      {"shard.merge_duplicates", Div(sum("shard.merge_duplicates"), queries),
       "count"},
  };

  // Self time per layer: every span's duration minus its children's,
  // summed by the layer prefix of its name, as a share of all traced
  // time (bench.* spans are the roots, so the shares sum to one).
  const char* const kLayers[] = {"bench", "xmark", "store",  "xpath",
                                 "compiler", "serve", "shard"};
  double traced_ns = 0.0;
  double self_ns[std::size(kLayers)] = {};
  for (const auto& [name, s] : totals) {
    const std::string_view layer = name.substr(0, name.find('.'));
    for (std::size_t i = 0; i < std::size(kLayers); ++i) {
      if (layer == kLayers[i]) self_ns[i] += static_cast<double>(s.self_ns);
    }
    traced_ns += static_cast<double>(s.self_ns);
  }
  static const std::string kSelfNames[] = {
      "self.bench_frac", "self.xmark_frac",    "self.store_frac",
      "self.xpath_frac", "self.compiler_frac", "self.serve_frac",
      "self.shard_frac"};
  for (std::size_t i = 0; i < std::size(kLayers); ++i) {
    out.push_back({kSelfNames[i], Div(self_ns[i], traced_ns), "fraction"});
  }
  out.push_back({"trace.spans_per_round",
                 Div(static_cast<double>(spans.recorded()), rounds), "count"});
  return out;
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: navbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--fast] [--trace-out <file>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  SpanRecorder spans(kMaxKeptSpans);
  const std::size_t sim_rounds = args.fast ? 1 : workload->sim_rounds;
  // The traced run reports no simulated end-to-end metrics, so it needs
  // only as many rounds as its time allows.
  const std::size_t min_rounds = args.trace ? 1 : sim_rounds;

  RoundResult sim;     // the first sim_rounds untraced rounds
  RoundResult all;     // every round, traced or not (for the failure count)
  RoundResult traced;  // traced rounds (per-layer counters)
  std::vector<double> setup_s;
  HostRate rate;                     // in CPU time
  std::vector<double> wall_setup_s;  // wall-clock twins, printed only
  HostRate wall_rate;
  HostRate traced_rate;
  double peak_rss_mib = 0.0;
  const std::int64_t start = SpanRecorder::Now();
  const auto elapsed = [&] {
    return static_cast<double>(SpanRecorder::Now() - start) / 1e9;
  };
  std::size_t round = 0;
  for (;; ++round) {
    if (round >= min_rounds && (args.fast || elapsed() >= args.seconds)) break;
    if (round > 0 && elapsed() > kMaxLoopSeconds) {
      std::fprintf(stderr, "navbench: stopping after %zu rounds (%.0f s)\n",
                   round, elapsed());
      break;
    }
    const RoundContext ctx{args.seed, round, args.fast, &spans};
    const RoundResult plain = RunRound(*workload, ctx);
    std::fprintf(stderr,
                 "round %zu: setup %.3f s, measured %.3f s, %" PRIu64
                 " ops, sim span %.3f s, sim p50 %.3f s, p95 %.3f s, %" PRIu64
                 " disk reads\n",
                 round, plain.setup.cpu_s, plain.host.cpu_s, plain.completed,
                 plain.sim_span_s, Median(plain.read_turnaround_s),
                 Percentile(plain.read_turnaround_s, 0.95),
                 plain.metrics.disk_reads);
    setup_s.push_back(plain.setup.cpu_s);
    rate.Add(plain.completed, plain.host.cpu_s);
    wall_setup_s.push_back(plain.setup.wall_s);
    wall_rate.Add(plain.completed, plain.host.wall_s);
    if (round < sim_rounds) Merge(plain, &sim);
    // Peak RSS after the fixed simulated rounds: later rounds are as many
    // as the host's speed allows, so the reading would track it.
    if (round + 1 == sim_rounds) peak_rss_mib = PeakRssMiB();
    Merge(plain, &all);
    if (args.trace) {
      spans.set_enabled(true);
      RoundResult with_spans = RunRound(*workload, ctx);
      spans.set_enabled(false);
      if (with_spans.digest != plain.digest) {
        with_spans.Fail("tracing changed the simulated outcome");
      }
      traced_rate.Add(with_spans.completed, with_spans.host.cpu_s);
      Merge(with_spans, &all);
      Merge(with_spans, &traced);
    }
  }

  const double span_s = sim.sim_span_s;
  const std::vector<double>& turnaround = sim.read_turnaround_s;
  const auto beyond = [&](double q) {
    const auto n = static_cast<double>(turnaround.size());
    return n - std::floor(q * n) - 1;
  };
  const double error_rate = Div(static_cast<double>(all.failed),
                                static_cast<double>(all.attempted));
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"host_qps", rate.rate(), "ops/s"},
      {"sim_p50_s", Percentile(turnaround, 0.50), "sim_s"},
      {"sim_p95_s", Percentile(turnaround, 0.95), "sim_s"},
      {"sim_qps", Div(static_cast<double>(sim.completed), span_s), "1/sim_s"},
      {"peak_rss_mb", peak_rss_mib > 0.0 ? peak_rss_mib : PeakRssMiB(), "MiB"},
  };
  // End-to-end figures that exist on some workloads only (or are zero at a
  // correct commit); BENCHMARK.json cannot bound them, the per-layer list
  // carries them.
  const std::vector<Metric> extra = {
      {"sim_p99_s", Percentile(turnaround, 0.99), "sim_s"},
      {"commits_per_sim_s", Div(static_cast<double>(sim.commits), span_s),
       "1/sim_s"},
      {"error_rate", error_rate, "fraction"},
  };

  std::printf("navbench %s seed=%" PRIu64 " rounds=%zu trace=%d%s\n",
              workload->name, args.seed, round, args.trace ? 1 : 0,
              args.fast ? " fast" : "");
  std::printf("  simulated metrics over the first %zu rounds: %zu reads, "
              "%.0f beyond p95, %.0f beyond p99\n",
              std::min(round, sim_rounds), turnaround.size(), beyond(0.95),
              beyond(0.99));
  std::printf("  sim_digest %016" PRIx64 "\n", sim.digest);
  std::printf("  wall clock: setup %.4f s, %.4f ops/s (host metrics below "
              "use this thread's CPU time)\n",
              Median(wall_setup_s), wall_rate.rate());

  std::vector<Metric> reported;
  if (args.trace) {
    reported = LayerMetrics(traced, spans);
    reported.insert(reported.end(), extra.begin(), extra.end());
    reported.push_back({"trace.overhead_frac",
                        1.0 - Div(traced_rate.rate(), rate.rate()),
                        "fraction"});
    const bool wrote = spans.WriteChromeTrace(args.trace_out);
    std::printf("  spans: %" PRIu64 " recorded, %zu written to %s%s\n",
                spans.recorded(), spans.kept(), args.trace_out.c_str(),
                wrote ? "" : " (WRITE FAILED)");
    std::printf("  untraced host_qps %.4f, traced %.4f\n", rate.rate(),
                traced_rate.rate());
  } else {
    reported = end_to_end;
  }
  for (const Metric& m : reported) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!args.trace) {
    for (const Metric& m : extra) {
      std::printf("  %-32s %.6g %s (not bounded)\n", m.name.c_str(), m.value,
                  m.unit);
    }
  }
  for (const std::string& e : all.errors) {
    std::fprintf(stderr, "navbench: WRONG RESULT: %s\n", e.c_str());
  }
  const bool correct = all.failed == 0;
  PrintJson(correct, all.attempted, all.failed, reported);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
