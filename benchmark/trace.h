// In-memory span tracer for the benchmark driver.
//
// Spans are recorded from the driver's own code around calls into the
// library's public API (never from inside src/). Each span is a Chrome
// trace-event "complete" event: name, thread, start and duration in
// microseconds, plus optional numeric args. Spans stay in memory and are
// written once, at exit, as plain JSON that Perfetto (ui.perfetto.dev) and
// chrome://tracing open without any dependency.
//
// A disabled tracer records nothing: Span and Record cost one branch.
#ifndef BENCHMARK_TRACE_H_
#define BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mgbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

using SpanArgs = std::vector<std::pair<std::string, double>>;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Thread-safe; a no-op when tracing is off.
  void Record(const char* name, int tid, Clock::time_point begin, Clock::time_point end,
              SpanArgs args = {}) {
    if (!enabled_) {
      return;
    }
    Event e{name, tid, Micros(begin), Micros(end) - Micros(begin), std::move(args)};
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
  }

  // Sum of the durations of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Event& e : events_) {
      if (e.name == name) {
        total += e.dur_us;
      }
    }
    return total * 1e-6;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const size_t dot = e.name.find('.');
      const std::string layer = dot == std::string::npos ? e.name : e.name.substr(0, dot);
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {",
                   e.name.c_str(), layer.c_str(), e.tid, e.ts_us, e.dur_us);
      for (size_t a = 0; a < e.args.size(); ++a) {
        std::fprintf(f, "%s\"%s\": %.17g", a == 0 ? "" : ", ", e.args[a].first.c_str(),
                     e.args[a].second);
      }
      std::fprintf(f, "}}%s\n", i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    std::string name;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    SpanArgs args;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

// Records one span from construction to destruction on thread `tid`.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int tid = 0)
      : tracer_(tracer),
        name_(name),
        tid_(tid),
        begin_(tracer->enabled() ? Clock::now() : Clock::time_point()) {}
  ~Span() {
    if (tracer_->enabled()) {
      tracer_->Record(name_, tid_, begin_, Clock::now());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int tid_;
  Clock::time_point begin_;
};

}  // namespace mgbench

#endif  // BENCHMARK_TRACE_H_
