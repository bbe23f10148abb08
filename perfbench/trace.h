// In-memory span recorder of the traced run: one span around every call the
// benchmark makes into a layer, written out at exit as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     // Index of the enclosing span, -1 at top level.
  int64_t round = -1;  // Client round (one Apply) the call belongs to.
  bool first_read = false;  // First read of its view after an Apply.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_round(int64_t round) { round_ = round; }

  // Opens a span (no-op when disabled); returns its index for End().
  int Begin(const char* name, bool first_read = false) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_ns = Now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.round = round_;
    s.first_read = first_read;
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes every span as a complete ("X") trace event; false on I/O error.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"round\":%lld,\"first_read\":%s}}\n",
                   i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<long long>(s.round),
                   s.first_read ? "true" : "false");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  int64_t round_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Scoped span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, bool first_read = false)
      : t_(t), id_(t->Begin(name, first_read)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
