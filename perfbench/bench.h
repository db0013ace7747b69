// Shared benchmark pieces: options, the op/check counter, per-pass results and
// the workload interface. See README.md for what each workload measures.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;  // Chrome-trace path for the host spans
};

double CpuS();       // CPU time of the whole process, all threads
double PeakRssMb();  // peak resident set of the process
double Median(std::vector<double> v);  // 0 when empty
// Nearest-rank value at the highest percentile that still leaves
// kTailBeyond samples above it. With 2 * kTailBeyond + 1 samples or fewer
// that percentile is no tail (it is at or below the median), so there is
// none and Tail returns 0.
inline constexpr std::size_t kTailBeyond = 10;
double Tail(std::vector<double> v);
double Geomean(const std::vector<double>& v);  // 0 when empty

// Times every op, counts ops attempted and failures (failed checks and
// exceptions), and owns the host span recorder.
class Ctx {
 public:
  explicit Ctx(Spans* spans) : spans(spans) {}

  // Runs one op: a host span named `span` (the layer called) around `fn`,
  // whose host time lands in op_ms. `fn` returns false when its output
  // check fails; a thrown exception counts as a failure too. Returns whether
  // the op succeeded.
  template <class F>
  bool Op(const char* span, const std::string& detail, F&& fn) {
    ++attempted;
    Spans::Scope scope(spans, span, detail);
    bool ok = false;
    try {
      ok = fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op %s threw: %s\n", detail.c_str(),
                   e.what());
    }
    op_ms.push_back(scope.Stop() * 1e3);
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: op %s FAILED\n", detail.c_str());
    }
    return ok;
  }

  // A check outside any op (determinism, cross-run equality).
  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  Spans* spans;
  long attempted = 0;
  long failed = 0;
  std::vector<double> op_ms;  // host time per op of the current phase
};

struct PassResult {
  // Per-layer metrics of this pass, by name (see kPerLayer in main.cc).
  std::map<std::string, double> layer;
  // Simulated results (makespans, latencies, costs) that every pass, traced
  // or not, must reproduce bitwise.
  std::vector<double> answers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs from the seed and warms the simulator up. Repeatable:
  // main() times several set-ups and reports their median.
  virtual void SetUp() = 0;
  // One timed pass over the workload's fixed set of ops. Repeatable: with
  // --trace 1, main() runs a second, traced pass.
  virtual PassResult Pass(Ctx& ctx) = 0;
};

std::unique_ptr<Workload> MakeKernels(const Options& opts);
std::unique_ptr<Workload> MakeTuneCold(const Options& opts);
std::unique_ptr<Workload> MakeServing(const Options& opts);

// The common part of every set-up: one small fused AG+GEMM simulated end to
// end (World build, kernel construction, RunSpmd).
void WarmUpProbe();

}  // namespace perfbench
