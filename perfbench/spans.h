// Host span recorder: one span per timed call into the stack (name, start,
// end, parent), kept in memory and written as Chrome-trace JSON on exit.
//
// Every timed call goes through a Scope, which always measures its own
// duration (the untraced run needs per-op and per-layer times too) but only
// appends a span while recording is enabled, so the untraced run pays for
// two clock reads per call and nothing else. Single-threaded: spans nest by
// a stack, which is how the self-time table finds each span's children.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Spans {
 public:
  struct Span {
    std::string name;    // the layer, e.g. "sim.run"
    std::string detail;  // what was called, e.g. the kernel name
    double start = 0;    // seconds, steady clock
    double end = 0;
    int parent = -1;     // index into spans(), -1 for a root
  };

  class Scope {
   public:
    Scope(Spans* spans, std::string name, std::string detail = "");
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Stop(); }
    // Ends the span (idempotent) and returns its duration in seconds.
    double Stop();

   private:
    Spans* spans_;
    int index_ = -1;  // -1 when not recording
    double start_;
    double elapsed_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome-trace JSON ("X" events, microseconds from the first span).
  bool WriteChromeTrace(const std::string& path) const;
  // Per-layer table: calls, total and self time (total minus the time
  // covered by direct children), sorted by self time.
  std::string SelfTimeTable() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
