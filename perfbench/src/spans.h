// In-memory span recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's own calls into the library (set-up, each join
// call, each replayed layer call); nothing inside the library is
// instrumented. Every span has a name, a start, an end and a parent, and
// all spans of one workload run share the recorder's run id. Spans stay in
// memory until the run ends, when the recorder computes self times (a
// span's duration minus the part its child spans cover) and writes the
// whole trace out as Chrome trace-event JSON.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< Since the recorder's construction.
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< Index of the enclosing span, -1 at top level.
};

/// Per-name aggregate of recorded spans.
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Single-threaded recorder: spans nest strictly (a stack), which is how
/// the benchmark's driver calls them.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  const std::string& run_id() const { return run_id_; }

  /// Spans are only stored while enabled; timing is taken either way.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its index, or -1 while disabled.
  int64_t Begin(const std::string& name);
  /// Closes the span Begin returned (a no-op for -1).
  void End(int64_t index);

  /// Total duration of every recorded span called `name`.
  double TotalSeconds(const std::string& name) const;

  /// Per-name count, total and self time, ordered by first appearance.
  std::vector<SpanTotals> Totals() const;

  /// The recorded spans as Chrome trace-event JSON; each event carries its
  /// span id, parent id, run id and self time in args.
  std::string ToChromeJson() const;

 private:
  int64_t NowNs() const;
  std::vector<double> SelfSeconds() const;

  std::string run_id_;
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span. Measures its own duration even when the recorder is off, so
/// callers can read seconds() in both modes.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), index_(recorder->Begin(name)),
        start_(Clock::now()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      seconds_ = SecondsBetween(start_, Clock::now());
      recorder_->End(index_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanRecorder* recorder_;
  int64_t index_;
  Clock::time_point start_;
  double seconds_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
