// Bench-side span recorder for the traced run.
//
// The benchmark brackets each call it makes into a navpath layer with a
// steady_clock span named "<layer>.<call>" (e.g. "compiler.step" around
// WorkloadExecutor::StepOnce). Spans nest: a span opened while another is
// open is its child, so a layer's self time is its span time minus the
// part its child spans cover. Totals (count, total, self) are kept per
// name for every span; the first `max_kept` spans are also kept verbatim
// and written at exit as Chrome trace_event JSON, the format the engine's
// own observe tracer emits. Nothing here touches the simulated clock.
#ifndef NAVBENCH_SPANS_H_
#define NAVBENCH_SPANS_H_

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace navbench {

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(std::size_t max_kept) : max_kept_(max_kept) {}

  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens `name` (a string literal) as a child of the innermost open span.
  void Begin(const char* name) {
    open_.push_back({name, Now(), 0, next_id_++});
  }

  void End() {
    const Open span = open_.back();
    open_.pop_back();
    Close(span.name, span.start, Now(), span.child_ns, span.id);
  }

  /// Records the already-finished span [start, end) as a child of the
  /// innermost open span (used for intervals cut from a callback stream).
  void Add(const char* name, std::int64_t start, std::int64_t end) {
    Close(name, start, end, 0, next_id_++);
  }

  const std::unordered_map<std::string_view, Totals>& totals() const {
    return totals_;
  }
  std::uint64_t recorded() const { return next_id_ - 1; }
  std::size_t kept() const { return kept_.size(); }

  /// Writes the kept spans as Chrome trace_event JSON ("X" events on one
  /// track, category = layer, args carry span and parent ids).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"args\":{\"name\":\"navbench (host time)\"}}");
    const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start;
    for (const Kept& span : kept_) {
      const std::string_view name(span.name);
      const std::string layer(name.substr(0, name.find('.')));
      const std::int64_t ts = span.start - t0;
      const std::int64_t dur = span.end - span.start;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%" PRId64 ".%03d,\"dur\":%" PRId64
                   ".%03d,\"pid\":1,\"tid\":1,\"args\":{\"id\":%" PRIu64
                   ",\"parent\":%" PRIu64 "}}",
                   span.name, layer.c_str(), ts / 1000,
                   static_cast<int>(ts % 1000), dur / 1000,
                   static_cast<int>(dur % 1000), span.id, span.parent);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    const char* name;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t id;
  };
  struct Kept {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t id;
    std::uint64_t parent;
  };

  void Close(const char* name, std::int64_t start, std::int64_t end,
             std::int64_t child_ns, std::uint64_t id) {
    const std::int64_t dur = end - start;
    Totals& t = totals_[name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns;
    std::uint64_t parent = 0;
    if (!open_.empty()) {
      open_.back().child_ns += dur;
      parent = open_.back().id;
    }
    if (kept_.size() < max_kept_) kept_.push_back({name, start, end, id, parent});
  }

  std::size_t max_kept_;
  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::unordered_map<std::string_view, Totals> totals_;
};

/// RAII span; free when the recorder is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                              : nullptr) {
    if (recorder_ != nullptr) recorder_->Begin(name);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace navbench

#endif  // NAVBENCH_SPANS_H_
