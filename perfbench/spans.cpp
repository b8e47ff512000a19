#include "perfbench/spans.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans open on this thread, innermost last.
thread_local std::vector<std::int32_t> open_stack;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

SpanLog::SpanLog() : epoch_ns_(steady_ns()) {}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::now_ns() const { return steady_ns() - epoch_ns_; }

std::int32_t SpanLog::current() const { return open_stack.empty() ? -1 : open_stack.back(); }

std::int32_t SpanLog::open(const char* name, std::int64_t op) {
  Span span;
  span.name = name;
  span.parent = current();
  span.op = op;
  span.thread = thread_index();
  span.start_ns = now_ns();
  std::int32_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
  }
  open_stack.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  if (!open_stack.empty() && open_stack.back() == index) open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void SpanLog::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::int32_t parent, std::int64_t op) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.op = op;
  span.thread = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::map<std::string, double> SpanLog::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    const std::int64_t duration = span.end_ns - span.start_ns;
    self[i] += duration;
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= duration;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    by_layer[layer_of(spans_[i].name)] += static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

std::string SpanLog::chrome_trace_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "[";
  bool first = true;
  char buffer[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":0,\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%" PRId64 "}}",
                  first ? "" : ",", span.name, layer_of(span.name).c_str(),
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, span.thread, i,
                  span.parent, span.op);
    out << buffer;
    first = false;
  }
  out << "\n]\n";
  return out.str();
}

std::string SpanLog::self_time_table() const {
  const auto by_layer = self_seconds_by_layer();
  double total = 0.0;
  for (const auto& [layer, seconds] : by_layer) total += seconds;
  std::ostringstream out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-10s %12s %8s\n", "layer", "self_s", "share");
  out << line;
  for (const auto& [layer, seconds] : by_layer) {
    std::snprintf(line, sizeof(line), "%-10s %12.6f %7.2f%%\n", layer.c_str(), seconds,
                  total > 0.0 ? 100.0 * seconds / total : 0.0);
    out << line;
  }
  return out.str();
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t op) {
  SpanLog& log = SpanLog::instance();
  if (log.enabled()) index_ = log.open(name, op);
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) SpanLog::instance().close(index_);
}

}  // namespace perfbench
