#include "observe/trace.h"

#include <cinttypes>
#include <cstdio>

namespace navpath {

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kOperator:
      return "operator";
    case TraceCategory::kScheduler:
      return "scheduler";
    case TraceCategory::kBuffer:
      return "buffer";
    case TraceCategory::kDisk:
      return "disk";
    case TraceCategory::kQuery:
      return "query";
  }
  return "?";
}

Tracer::Tracer(const SimClock* clock, const TracerOptions& options)
    : clock_(clock), options_(options) {
  NAVPATH_CHECK(clock != nullptr);
  track_names_[kTrackDisk] = "disk";
  track_names_[kTrackElevator] = "elevator queue";
  track_names_[kTrackBuffer] = "buffer";
  track_names_[kTrackScheduler] = "scheduler";
  track_names_[kTrackQueryBase] = "operators";
}

bool Tracer::Admit(TraceCategory category) {
  if (!enabled(category)) return false;
  if (events_.size() >= options_.max_events) {
    ++dropped_;
    return false;
  }
  return true;
}

std::uint32_t Tracer::Intern(std::string_view name) {
  const auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(names_.back(), idx);
  return idx;
}

void Tracer::Record(TraceCategory category, char phase, std::uint32_t track,
                    std::string_view name, SimTime ts, SimTime dur,
                    std::initializer_list<TraceArg> args) {
  Event event;
  event.name = Intern(name);
  event.track = track;
  event.ts = ts;
  event.dur = dur;
  event.category = static_cast<std::uint8_t>(category);
  event.phase = phase;
  event.argc = 0;
  for (const TraceArg& arg : args) {
    if (event.argc >= event.args.size()) break;
    event.args[event.argc++] = arg;
  }
  events_.push_back(event);
}

void Tracer::Span(TraceCategory category, std::uint32_t track,
                  std::string_view name, SimTime begin, SimTime end,
                  std::initializer_list<TraceArg> args) {
  if (!Admit(category)) return;
  NAVPATH_DCHECK(end >= begin);
  Record(category, 'X', track, name, begin, end - begin, args);
}

void Tracer::Instant(TraceCategory category, std::uint32_t track,
                     std::string_view name, SimTime at,
                     std::initializer_list<TraceArg> args) {
  if (!Admit(category)) return;
  Record(category, 'i', track, name, at, 0, args);
}

void Tracer::Clear() {
  events_.clear();
  dropped_ = 0;
}

std::string Tracer::ToJson() const {
  std::string out;
  out.reserve(events_.size() * 96 + 1024);
  out += "{\"traceEvents\":[\n";
  char buf[160];
  bool first = true;
  auto separate = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [track, name] : track_names_) {
    separate();
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%" PRIu32 ",\"args\":{\"name\":\"",
                  track);
    out += buf;
    for (const char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"}}";
  }
  for (const Event& event : events_) {
    separate();
    // Timestamps are microseconds in the trace_event format; three decimal
    // places preserve the simulator's nanosecond resolution exactly.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                  "\"ts\":%" PRIu64 ".%03u",
                  names_[event.name].c_str(),
                  TraceCategoryName(static_cast<TraceCategory>(event.category)),
                  event.phase, event.ts / 1000,
                  static_cast<unsigned>(event.ts % 1000));
    out += buf;
    if (event.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%" PRIu64 ".%03u",
                    event.dur / 1000, static_cast<unsigned>(event.dur % 1000));
      out += buf;
    }
    if (event.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%" PRIu32,
                  event.track);
    out += buf;
    if (event.argc > 0) {
      out += ",\"args\":{";
      for (std::uint8_t i = 0; i < event.argc; ++i) {
        if (i > 0) out += ',';
        std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64,
                      event.args[i].key, event.args[i].value);
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace navpath
