// perfbench: the repository benchmark program.
//
//   perfbench --workload <kernels|tune_cold|serving> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Times several set-ups, then runs one untraced pass of the workload's
// fixed ops; each workload is sized so that pass fits a --seconds of 30 on
// a 4-core x86 box. With --trace 0 the last stdout line is a JSON object
// carrying the end-to-end metrics; with --trace 1 a second pass runs with
// host spans (plus the simulator's own TraceRecorder on one kernel per
// family) recorded, and the JSON carries the per-layer metrics. The traced
// pass must reproduce the untraced pass's simulated results bitwise; any
// difference is a failed check.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <string>

#include "bench.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The JSON of a --trace 0 run carries exactly these, in this order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The JSON of a --trace 1 run carries exactly these; a layer a workload
// never calls reads 0 there. The op_* metrics come from the untraced
// pass: they are end-to-end in kind, but too noisy on a shared host to
// carry a regression bound (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"op_count", "count"},
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"sim.events", "count"},
    {"sim.run_s", "s"},
    {"sim.events_per_s", "1/s"},
    {"sim.loop_events_per_s", "1/s"},
    {"net.storm_64_s", "s"},
    {"net.storm_512_s", "s"},
    {"net.storm_4096_s", "s"},
    {"net.events_per_flow", "count"},
    {"net.bytes", "bytes"},
    {"runtime.world_s", "s"},
    {"builder.kernel_s", "s"},
    {"multinode.run_s", "s"},
    {"multinode.fault_retries", "count"},
    {"multinode.checker_violations", "count"},
    {"tuner.searches", "count"},
    {"tuner.full_sims", "count"},
    {"tuner.full_sims_per_search", "count"},
    {"tuner.search_call_p50_ms", "ms"},
    {"tuner.search_call_max_ms", "ms"},
    {"tuner.cpu_util", "frac"},
    {"tuner.hit_rate", "frac"},
    {"models.calls", "count"},
    {"models.hit_call_p50_ms", "ms"},
    {"models.memo_reuse", "frac"},
    {"models.attn_ms", "ms"},
    {"models.ffn_ms", "ms"},
    {"models.dp_sync_ms", "ms"},
    {"serving.requests", "count"},
    {"serving.steps", "count"},
    {"serving.sched_s", "s"},
    {"profile.ag_gemm.exposed_comm_frac", "frac"},
    {"profile.ag_gemm.compute_util", "frac"},
    {"profile.ag_gemm.wire_util", "frac"},
    {"profile.ag_gemm.critical_path_frac", "frac"},
    {"profile.gemm_rs.exposed_comm_frac", "frac"},
    {"profile.gemm_rs.compute_util", "frac"},
    {"profile.gemm_rs.wire_util", "frac"},
    {"profile.gemm_rs.critical_path_frac", "frac"},
    {"profile.gemm_hier_rs.exposed_comm_frac", "frac"},
    {"profile.gemm_hier_rs.compute_util", "frac"},
    {"profile.gemm_hier_rs.wire_util", "frac"},
    {"profile.gemm_hier_rs.critical_path_frac", "frac"},
    {"profile.ag_gemm_hier.exposed_comm_frac", "frac"},
    {"profile.ag_gemm_hier.compute_util", "frac"},
    {"profile.ag_gemm_hier.wire_util", "frac"},
    {"profile.ag_gemm_hier.critical_path_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"paper_err", "ratio"},
    {"tuned_gain", "ratio"},
    {"sim_latency_p50_ms", "ms"},
    {"sim_latency_tail_ms", "ms"},
    {"failed_frac", "frac"},
};

double CpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Tail(std::vector<double> v) {
  if (v.size() <= 2 * kTailBeyond + 1) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() - 1 - kTailBeyond];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

struct PassRecord {
  double wall_s = 0;
  double cpu_s = 0;
  PassResult result;
};

PassRecord TimedPass(Workload& w, Ctx& ctx) {
  PassRecord rec;
  const double cpu0 = CpuS();
  Spans::Scope pass(ctx.spans, "pass");
  rec.result = w.Pass(ctx);
  rec.wall_s = pass.Stop();
  rec.cpu_s = CpuS() - cpu0;
  return rec;
}

void PrintJson(const Ctx& ctx, const std::map<std::string, double>& values,
               const MetricDef* defs, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              ctx.failed == 0 ? "true" : "false", ctx.attempted, ctx.failed);
  for (std::size_t i = 0; i < count; ++i) {
    double v = values.at(defs[i].name);
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

void PrintTable(const char* title, const std::map<std::string, double>& values,
                const MetricDef* defs, std::size_t count) {
  std::printf("-- %s --\n", title);
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  %-40s %16.6g %s\n", defs[i].name, values.at(defs[i].name),
                defs[i].unit);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kernels|tune_cold|serving> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload;
  if (opts.workload == "kernels") {
    workload = MakeKernels(opts);
  } else if (opts.workload == "tune_cold") {
    workload = MakeTuneCold(opts);
  } else if (opts.workload == "serving") {
    workload = MakeServing(opts);
  } else {
    return Usage();
  }
  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
              opts.workload.c_str(), (unsigned long long)opts.seed,
              opts.seconds, opts.trace ? 1 : 0);

  // The first few dozen set-ups of a process take 10-30 ms before they
  // settle near 10 ms, and a busy host slows stretches of them down by half
  // again, so setup_s is the median of many.
  constexpr int kSetUps = 201;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetUps; ++i) {
    const double t0 = NowS();
    workload->SetUp();
    setup_s.push_back(NowS() - t0);
  }

  Spans spans;
  Ctx ctx(&spans);
  const PassRecord plain = TimedPass(*workload, ctx);
  const std::vector<double> plain_ops = ctx.op_ms;
  const double plain_rss_mb = PeakRssMb();  // before a traced pass adds to it
  std::optional<PassRecord> traced;
  if (opts.trace) {
    spans.set_enabled(true);
    ctx.op_ms.clear();
    traced = TimedPass(*workload, ctx);
    spans.set_enabled(false);
    ctx.Check(traced->result.answers == plain.result.answers,
              "simulated results identical with tracing on or off");
  }

  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(setup_s);
  e2e["wall_s"] = plain.wall_s;
  e2e["cpu_s"] = plain.cpu_s;
  e2e["peak_rss_mb"] = plain_rss_mb;

  std::map<std::string, double> layer;
  for (const MetricDef& d : kPerLayer) layer[d.name] = 0;
  for (const auto& [name, v] : (traced ? *traced : plain).result.layer) {
    if (layer.count(name) == 0) {
      ctx.Check(false, "unknown per-layer metric " + name);
      continue;
    }
    layer[name] = v;
  }
  if (traced) {
    layer["trace.overhead_frac"] =
        (traced->wall_s - plain.wall_s) / plain.wall_s;
  }
  layer["op_count"] = static_cast<double>(plain_ops.size());
  layer["op_p50_ms"] = Median(plain_ops);
  layer["op_tail_ms"] = Tail(plain_ops);
  layer["failed_frac"] = static_cast<double>(ctx.failed) /
                         static_cast<double>(std::max(1L, ctx.attempted));

  PrintTable("end-to-end (untraced pass)", e2e, kEndToEnd,
             std::size(kEndToEnd));
  PrintTable(traced ? "per-layer (traced pass)" : "per-layer (untraced pass)",
             layer, kPerLayer, std::size(kPerLayer));
  if (opts.trace) {
    std::printf("-- host self time by span (traced pass) --\n%s",
                spans.SelfTimeTable().c_str());
    if (!opts.trace_out.empty()) {
      if (spans.WriteChromeTrace(opts.trace_out)) {
        std::printf("host trace: %s (%zu spans)\n", opts.trace_out.c_str(),
                    spans.spans().size());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opts.trace_out.c_str());
      }
    }
    PrintJson(ctx, layer, kPerLayer, std::size(kPerLayer));
  } else {
    PrintJson(ctx, e2e, kEndToEnd, std::size(kEndToEnd));
  }
  return 0;
}
