#include "spans.h"

#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int64_t index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  // Spans nest strictly; closing one also closes anything left open in it.
  while (!open_.empty() && open_.back() >= index) open_.pop_back();
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  // Children of one parent never overlap (single-threaded nesting), so the
  // part of the parent they cover is the sum of their durations.
  std::vector<int64_t> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self_ns[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::vector<double> out(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[i] = static_cast<double>(self_ns[i]) * 1e-9;
  }
  return out;
}

std::vector<SpanTotals> SpanRecorder::Totals() const {
  const std::vector<double> self = SelfSeconds();
  std::vector<SpanTotals> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto [it, inserted] = slot.emplace(span.name, out.size());
    if (inserted) out.push_back(SpanTotals{span.name});
    SpanTotals& totals = out[it->second];
    ++totals.count;
    totals.total_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    totals.self_s += self[i];
  }
  return out;
}

std::string SpanRecorder::ToChromeJson() const {
  const std::vector<double> self = SelfSeconds();
  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"run\":\"%s\",\"self_us\":%.3f}}",
                  i == 0 ? "" : ",\n", span.name.c_str(),
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  static_cast<long long>(span.parent), run_id_.c_str(),
                  self[i] * 1e6);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
