// In-memory span recording for the traced benchmark run.
//
// A span covers one call from the benchmark into a layer's public API.
// Span names are "<layer>.<call>" (instance, metalog, vadalog, magic, lint,
// service); a root span ("request" or "setup") groups the calls of one
// request, materialization or set-up round and carries its id.  Each
// thread records into its own SpanLog, so recording takes no lock; the
// logs are merged and written out when the run ends.

#ifndef KGBENCH_TRACE_H_
#define KGBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kgbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        // index in the same log; -1 for a root
  uint64_t request = 0;   // shared by every span of one request
};

class SpanLog {
 public:
  // Adds a finished span (used directly by tests).
  int Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  int Begin(std::string name, int parent, uint64_t request) {
    return Add(Span{std::move(name), NowNs(), 0, parent, request});
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  // Appends `other`'s spans, re-basing their parent indices.
  void Append(const SpanLog& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, uint64_t request)
      : log_(log), id_(log.Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// The layer a span belongs to: the text before the first '.', or empty
// for root spans, whose self time is the unattributed remainder.
inline std::string_view LayerOf(std::string_view name) {
  const size_t dot = name.find('.');
  return dot == std::string_view::npos ? std::string_view{}
                                       : name.substr(0, dot);
}

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // end of the covered prefix so far
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace kgbench

#endif  // KGBENCH_TRACE_H_
