// Span tracer over the simulated clock (the observability subsystem's
// event backbone).
//
// Every span and instant is stamped with *simulated* time read from the
// SimClock, never charged to it: enabling tracing changes what a run
// reports, not what it costs. Because the simulation is deterministic, the
// trace of a run is deterministic too — identical seeds produce
// byte-identical trace JSON, so traces can be diffed like any other
// benchmark artifact.
//
// Output is Chrome trace_event JSON ("X" complete events and "i" instants
// with microsecond timestamps), directly loadable in Perfetto or
// chrome://tracing. Tracks (tid) separate the disk, the elevator queue,
// the buffer manager, and one operator lane per query.
//
// Compile-time elision: configuring with -DNAVPATH_OBSERVE=OFF defines
// NAVPATH_OBSERVE_DISABLED, the NAVPATH_TRACE macro expands to nothing,
// and no hot-path object references any symbol of this library.
#ifndef NAVPATH_OBSERVE_TRACE_H_
#define NAVPATH_OBSERVE_TRACE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/sim_clock.h"

namespace navpath {

/// Event categories, maskable so heavy producers (per-pull operator spans)
/// can be disabled independently of the cheap ones.
enum class TraceCategory : unsigned {
  kOperator = 1u << 0,   // one span per instrumented operator pull
  kScheduler = 1u << 1,  // XSchedule cluster entries, yields, blocks
  kBuffer = 1u << 2,     // fix misses, evictions, prefetch waits
  kDisk = 1u << 3,       // seek/transfer spans, submissions, queue
  kQuery = 1u << 4,      // per-query lifecycle marks
};

inline constexpr unsigned kAllTraceCategories = 0x1f;

const char* TraceCategoryName(TraceCategory category);

// Well-known tracks (Chrome trace "tid"s). Operator spans of query with
// owner id `o` land on kTrackQueryBase + o (owner 0 = standalone).
inline constexpr std::uint32_t kTrackDisk = 1;
inline constexpr std::uint32_t kTrackElevator = 2;
inline constexpr std::uint32_t kTrackBuffer = 3;
inline constexpr std::uint32_t kTrackScheduler = 4;
inline constexpr std::uint32_t kTrackQueryBase = 10;

struct TracerOptions {
  /// Bitmask of TraceCategory values to record.
  unsigned categories = kAllTraceCategories;
  /// Hard cap on recorded events; once reached, further events are counted
  /// in dropped_events() but not stored (bounded memory on huge runs).
  std::size_t max_events = 4u * 1024 * 1024;
};

/// A numeric event argument ({"page": 42} in the JSON output).
struct TraceArg {
  const char* key;
  std::uint64_t value;
};

class Tracer {
 public:
  explicit Tracer(const SimClock* clock, const TracerOptions& options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled(TraceCategory category) const {
    return (options_.categories & static_cast<unsigned>(category)) != 0;
  }

  /// Records a complete span [begin, end] (simulated nanoseconds). Spans
  /// may be recorded out of timestamp order; viewers sort by ts.
  void Span(TraceCategory category, std::uint32_t track,
            std::string_view name, SimTime begin, SimTime end,
            std::initializer_list<TraceArg> args = {});

  /// Records an instant event at `at`.
  void Instant(TraceCategory category, std::uint32_t track,
               std::string_view name, SimTime at,
               std::initializer_list<TraceArg> args = {});

  std::size_t event_count() const { return events_.size(); }
  std::uint64_t dropped_events() const { return dropped_; }

  /// Drops all recorded events. Called when a measurement window resets
  /// so trace timestamps match the fresh clock.
  void Clear();

  /// Serializes everything recorded so far as a Chrome trace_event JSON
  /// document ({"traceEvents": [...]}). Deterministic: depends only on the
  /// recorded events, which depend only on the simulated run.
  std::string ToJson() const;

 private:
  struct Event {
    std::uint32_t name;  // index into names_
    std::uint32_t track;
    SimTime ts;
    SimTime dur;  // spans only
    std::uint8_t category;
    char phase;  // 'X' span, 'i' instant
    std::uint8_t argc;
    std::array<TraceArg, 2> args;
  };

  bool Admit(TraceCategory category);
  std::uint32_t Intern(std::string_view name);
  void Record(TraceCategory category, char phase, std::uint32_t track,
              std::string_view name, SimTime ts, SimTime dur,
              std::initializer_list<TraceArg> args);

  const SimClock* clock_;
  TracerOptions options_;
  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_index_;
  std::map<std::uint32_t, std::string> track_names_;
  std::uint64_t dropped_ = 0;
};

}  // namespace navpath

// Hot-path hook: expands to a guarded call on an enabled build and to
// nothing when observability is compiled out, so instrumented call sites
// stay free of observe symbols under -DNAVPATH_OBSERVE=OFF.
//
//   NAVPATH_TRACE(tracer_, Span(TraceCategory::kDisk, kTrackDisk, "seek",
//                               t0, t1, {{"page", id}}));
#if NAVPATH_OBSERVE_ENABLED
#define NAVPATH_TRACE(tracer, ...)                            \
  do {                                                        \
    ::navpath::Tracer* navpath_trace_tracer = (tracer);       \
    if (navpath_trace_tracer != nullptr) {                    \
      navpath_trace_tracer->__VA_ARGS__;                      \
    }                                                         \
  } while (false)
#else
#define NAVPATH_TRACE(tracer, ...) \
  do {                             \
  } while (false)
#endif

#endif  // NAVPATH_OBSERVE_TRACE_H_
