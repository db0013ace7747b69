// Chrome-trace (about://tracing, Perfetto) recorder for simulated timelines.
//
// The recorder stores structured events — duration spans with typed args,
// flow start/finish points ("s"/"f") that Perfetto renders as arrows between
// slices, counter tracks ("C"), and instant markers ("i") — plus interned
// process/thread naming metadata, and serializes the lot as chrome-trace
// JSON (ts/dur in microseconds, sim time is nanoseconds).
//
// Conventions used by the fabric instrumentation (see runtime/world.cc):
//   pid          = global rank for rank-side spans; ranks..ranks+1 for the
//                  nvlink/nic fabrics; further pids for checker + simulator.
//   tid          = a track interned per (pid, name) via Track() — role,
//                  rail, ring lane, reducer, SM pool.
//   category     = kCatCompute / kCatWire / kCatComm for spans that carry
//                  simulated work (the profiler in sim/profile.h classifies
//                  time by these); kCatTask for structural spans (coroutine
//                  roots, event loop) that are excluded from profiler math.
//
// Emission is pay-for-use: every producer site guards on the simulator's
// recorder pointer, so with no recorder attached the hot path neither
// allocates nor branches further, and attaching one never feeds back into
// event scheduling — makespans are bitwise identical with tracing on or off
// (pinned by tests/test_trace.cc).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace tilelink::sim {

// Span categories understood by the profiler (sim/profile.h).
inline constexpr char kCatCompute[] = "compute";  // SM-resident tile work
inline constexpr char kCatWire[] = "wire";        // link-level flow transfers
inline constexpr char kCatComm[] = "comm";        // chunk pipelines + reduces
inline constexpr char kCatTask[] = "task";        // structural, not profiled

// One typed key/value argument attached to a trace event.
struct TraceArg {
  std::string key;
  std::string sval;
  double nval = 0;
  bool is_num = false;

  static TraceArg Num(std::string key, double value) {
    TraceArg a;
    a.key = std::move(key);
    a.nval = value;
    a.is_num = true;
    return a;
  }
  static TraceArg Str(std::string key, std::string value) {
    TraceArg a;
    a.key = std::move(key);
    a.sval = std::move(value);
    return a;
  }
};

class TraceRecorder {
 public:
  enum class Phase : uint8_t {
    kSpan,        // "X" complete event over [start, end]
    kFlowStart,   // "s" at start
    kFlowFinish,  // "f" (bp:"e") at start
    kCounter,     // "C" at start; category holds the series key, value the y
    kInstant,     // "i" thread-scoped at start
  };

  struct Event {
    Phase phase = Phase::kSpan;
    int pid = 0;
    int tid = 0;
    TimeNs start = 0;
    TimeNs end = 0;     // spans only; == start otherwise
    uint64_t flow = 0;  // flow events only; 0 = none
    double value = 0;   // counters only
    std::string name;
    std::string category;
    std::vector<TraceArg> args;

    TimeNs dur() const { return end - start; }
  };

  // ---- naming -----------------------------------------------------------
  void SetProcessName(int pid, const std::string& name);
  // Interns `name` as a thread track of process `pid` and returns its tid
  // (stable across calls; thread_name metadata is emitted at serialization).
  int Track(int pid, const std::string& name);

  // ---- emission (all timestamps in simulated nanoseconds) ---------------
  void AddSpan(int pid, int tid, const std::string& name, TimeNs start,
               TimeNs end, const std::string& category = kCatTask,
               std::vector<TraceArg> args = {});

  // Flow arrows: allocate an id once (never 0), emit "s" at the producer
  // and "f" at the consumer with the same id + name.
  uint64_t NewFlowId() { return ++next_flow_; }
  void AddFlowStart(uint64_t id, int pid, int tid, TimeNs ts,
                    const std::string& name);
  void AddFlowFinish(uint64_t id, int pid, int tid, TimeNs ts,
                     const std::string& name);

  // One sample of series `series` on counter track `track` of process pid.
  void AddCounter(int pid, const std::string& track, const std::string& series,
                  TimeNs ts, double value);

  void AddInstant(int pid, int tid, const std::string& name, TimeNs ts,
                  std::vector<TraceArg> args = {});

  // ---- serialization ----------------------------------------------------
  // Streams the chrome-trace JSON (metadata first, then events in emission
  // order) without materializing it.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
  void Save(const std::string& path) const;

  // Escapes a string for embedding inside a JSON string literal.
  static void AppendEscaped(std::ostream& os, const std::string& s);

  // Full-grammar JSON validity check (objects/arrays/strings with escapes/
  // numbers/literals). Returns false and sets *error (when given) on the
  // first malformed byte. Used by tests and the bench --trace self-check.
  static bool ValidateJson(const std::string& text,
                           std::string* error = nullptr);

  // ---- inspection -------------------------------------------------------
  const std::vector<Event>& events() const { return events_; }
  const std::map<int, std::string>& process_names() const {
    return process_names_;
  }
  size_t size() const { return events_.size(); }

 private:
  std::vector<Event> events_;
  uint64_t next_flow_ = 0;
  std::map<int, std::string> process_names_;
  // (pid, track name) -> tid; tids count up from 1 per pid.
  std::map<std::pair<int, std::string>, int> track_ids_;
  std::map<int, int> next_tid_;
};

}  // namespace tilelink::sim
