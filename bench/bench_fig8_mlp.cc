// Figure 8 + Table 2: tensor-parallel MLP on 8xH800 — AG+GEMM, GEMM+RS and
// the full MLP layer, for cuBLAS+NCCL (non-overlap), Async-TP (operator
// decomposition), FLUX (coupled fusion) and TileLink.
//
// `--trace <path>` re-runs the first shape's TileLink GEMM+RS with a
// TraceRecorder attached and saves the timeline (per-op compute/comm spans
// from the device programs plus link/wire spans) as chrome-trace JSON.
#include <algorithm>
#include <cstdint>

#include "baselines/flux_baselines.h"
#include "baselines/mlp_baselines.h"
#include "bench/bench_common.h"
#include "bench/bench_shapes.h"
#include "compute/memops.h"
#include "sim/network.h"
#include "sim/trace.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/gemm_rs.h"

namespace tilelink::bench {
namespace {

// Flow-network counters summed over the figure simulations.
uint64_t g_completion_events = 0;
uint64_t g_rerates = 0;
uint64_t g_transfers = 0;
uint64_t g_wakeups = 0;
uint64_t g_empty_wakeups = 0;

// Runs `kernel` on every rank of `world`; returns the makespan in ms.
template <class Kernel>
double RunMs(rt::World& world, Kernel& kernel) {
  const double ms = ToMsD(world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); }));
  for (sim::Network* net : {&world.intra_fabric(), &world.inter_fabric()}) {
    g_completion_events += net->completion_events();
    g_rerates += net->rerated_flows();
    g_transfers += net->total_flows();
    g_wakeups += net->wakeups();
    g_empty_wakeups += net->empty_wakeups();
  }
  return ms;
}

// ---- AG + GEMM (m = tokens, k = hidden, n = intermediate / R) -----------

double AgGemmNonOverlap(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  baselines::MlpPartConfig cfg{m, k, n, CoarseTiling(k)};
  baselines::NonOverlapAgGemm bench(world, cfg);
  return RunMs(world, bench);
}

double AgGemmDecompose(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  baselines::MlpPartConfig cfg{m, k, n, CoarseTiling(k)};
  baselines::DecomposeAgGemm bench(world, cfg);
  return RunMs(world, bench);
}

double AgGemmFlux(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  baselines::FluxConfig cfg{m, k, n, CoarseTiling(k)};
  baselines::FluxAgGemm bench(world, cfg);
  return RunMs(world, bench);
}

double AgGemmTileLink(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  tl::AgGemmConfig cfg;
  cfg.m = m;
  cfg.k = k;
  cfg.n = n;
  cfg.gemm = CoarseTiling(k);
  cfg.comm_tile_m = 128;
  cfg.channels_per_rank = 4;
  cfg.comm = tl::CommResource::kDma;  // the mapping the paper's kernel uses
  tl::AgGemm bench(world, cfg);
  return RunMs(world, bench);
}

// ---- GEMM + RS (m = tokens, k = intermediate / R, n = hidden) -----------

double GemmRsNonOverlap(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  baselines::MlpPartConfig cfg{m, k, n, CoarseTiling(k)};
  baselines::NonOverlapGemmRs bench(world, cfg);
  return RunMs(world, bench);
}

double GemmRsDecompose(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  baselines::MlpPartConfig cfg{m, k, n, CoarseTiling(k)};
  baselines::DecomposeGemmRs bench(world, cfg);
  return RunMs(world, bench);
}

double GemmRsFlux(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  baselines::FluxConfig cfg{m, k, n, CoarseTiling(k)};
  baselines::FluxGemmRs bench(world, cfg);
  return RunMs(world, bench);
}

double GemmRsTileLink(int64_t m, int64_t k, int64_t n) {
  rt::World world = MakeH800x8();
  tl::GemmRsConfig cfg;
  cfg.m = m;
  cfg.k = k;
  cfg.n = n;
  cfg.gemm = CoarseTiling(k);
  cfg.rs_block_m = tl::RsBlockRows(m / world.size(), cfg.gemm.bm);
  cfg.dma_push = true;  // hybrid: reduce on SMs, scatter on copy engines
  tl::GemmRs bench(world, cfg);
  return RunMs(world, bench);
}

void PrintTuneStats(const char* label, double default_ms,
                    const tl::TuneResult& r) {
  std::printf("%s  default %.3f ms -> tuned %.3f ms  [%s]\n"
              "         (%zu scored, %d sims, %d pruned by cost model, %d "
              "infeasible)\n",
              label, default_ms, static_cast<double>(r.best_cost) / 1e6,
              r.best.Describe().c_str(), r.evaluated.size(), r.sims, r.pruned,
              r.infeasible);
}

// Autotuned TileLink on one shape: search the §3.1 design space exactly
// (ascending overlap-aware lower bound, bound pruning, one simulation per
// planner-distinct kernel) and compare against the hand-picked default
// config. Returns false (regression) when the tuned config loses to the
// default or the search stops merging planner-identical candidates.
bool TuneMlp1(const MlpShape& s, double ag_default_ms, double rs_default_ms,
              BenchReport* report) {
  const sim::MachineSpec spec = sim::MachineSpec::H800x8();
  const int R = spec.num_devices;
  std::printf("\n=== Autotuned TileLink (%s, TuningSpace::Mlp) ===\n",
              s.name.c_str());

  tl::TuneCandidate ag_base;
  ag_base.gemm = CoarseTiling(s.h);
  ag_base.comm = tl::CommResource::kDma;
  const tl::MlpPartShape ag_shape{s.s, s.h, s.i / R};
  const tl::TuneResult ag = tl::TuneAgGemm(spec, ag_shape,
                                           tl::TuningSpace::Mlp(), ag_base);
  PrintTuneStats("AG+GEMM", ag_default_ms, ag);

  tl::TuneCandidate rs_base;
  rs_base.gemm = CoarseTiling(s.i / R);
  rs_base.comm = tl::CommResource::kDma;  // hybrid push
  const tl::MlpPartShape rs_shape{s.s, s.i / R, s.h};
  const tl::TuneResult rs = tl::TuneGemmRs(spec, rs_shape,
                                           tl::TuningSpace::Mlp(), rs_base);
  PrintTuneStats("GEMM+RS", rs_default_ms, rs);

  report->Record("fig8.tuned." + s.name + ".ag_ms",
                 static_cast<double>(ag.best_cost) / 1e6);
  report->Record("fig8.tuned." + s.name + ".rs_ms",
                 static_cast<double>(rs.best_cost) / 1e6);
  const int sims = ag.sims + rs.sims;
  report->Record("fig8.tuned." + s.name + ".sims", sims);
  const bool ok = static_cast<double>(ag.best_cost) / 1e6 <= ag_default_ms &&
                  static_cast<double>(rs.best_cost) / 1e6 <= rs_default_ms;
  std::printf("tuned <= default: %s\n", ok ? "YES" : "NO (regression!)");
  // Canonical grouping must merge planner-identical candidates at this
  // scale: the simulations run stay below the candidates scored.
  const std::size_t scored = ag.evaluated.size() + rs.evaluated.size();
  std::printf("simulations run: %d for %zu candidates scored\n", sims,
              scored);
  return ok && static_cast<std::size_t>(sims) < scored;
}

// One representative TileLink GEMM+RS run re-recorded with the fabric
// timeline attached (--trace <path>). The recorder must be wired into the
// World before the kernel is constructed; tracing never changes the
// simulated makespan (pinned by tests/test_trace.cc).
void SaveGemmRsTrace(const MlpShape& s, const std::string& path) {
  sim::TraceRecorder rec;
  rt::World world = MakeH800x8();
  world.set_trace(&rec, /*pid_base=*/0, "gemm_rs");
  const int R = world.size();
  tl::GemmRsConfig cfg;
  cfg.m = s.s;
  cfg.k = s.i / R;
  cfg.n = s.h;
  cfg.gemm = CoarseTiling(s.i / R);
  cfg.rs_block_m = tl::RsBlockRows(s.s / R, cfg.gemm.bm);
  cfg.dma_push = true;
  tl::GemmRs bench(world, cfg);
  world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  rec.Save(path);
  std::printf("trace: wrote %s (%zu events)\n", path.c_str(), rec.size());
}

double ActivationMs(int64_t m, int64_t n) {
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  const sim::CostModel cost(spec);
  return ToMsD(cost.MemoryBound(3ULL * static_cast<uint64_t>(m) * n * 2,
                                spec.sms_per_device) +
               spec.kernel_launch_latency);
}

}  // namespace
}  // namespace tilelink::bench

int main(int argc, char** argv) {
  using namespace tilelink::bench;
  BenchReport report(argc, argv);
  const int R = 8;
  const std::vector<std::string> methods = {"cuBLAS+NCCL", "AsyncTP", "FLUX",
                                            "TileLink"};
  ResultTable ag("Figure 8a: AG+GEMM on 8xH800 (TP=8)", methods);
  ResultTable rs("Figure 8b: GEMM+RS on 8xH800 (TP=8)", methods);
  ResultTable full("Figure 8c: full MLP layer on 8xH800 (TP=8)", methods);

  for (const MlpShape& s : Table4Mlp()) {
    const int64_t n1 = s.i / R;  // AG+GEMM: H -> I/R
    const int64_t k2 = s.i / R;  // GEMM+RS: I/R -> H
    const double ag_no = AgGemmNonOverlap(s.s, s.h, n1);
    const double ag_dec = AgGemmDecompose(s.s, s.h, n1);
    const double ag_flux = AgGemmFlux(s.s, s.h, n1);
    const double ag_tl = AgGemmTileLink(s.s, s.h, n1);
    ag.Add(s.name, "cuBLAS+NCCL", ag_no);
    ag.Add(s.name, "AsyncTP", ag_dec);
    ag.Add(s.name, "FLUX", ag_flux);
    ag.Add(s.name, "TileLink", ag_tl);

    const double rs_no = GemmRsNonOverlap(s.s, k2, s.h);
    const double rs_dec = GemmRsDecompose(s.s, k2, s.h);
    const double rs_flux = GemmRsFlux(s.s, k2, s.h);
    const double rs_tl = GemmRsTileLink(s.s, k2, s.h);
    rs.Add(s.name, "cuBLAS+NCCL", rs_no);
    rs.Add(s.name, "AsyncTP", rs_dec);
    rs.Add(s.name, "FLUX", rs_flux);
    rs.Add(s.name, "TileLink", rs_tl);

    const double act = ActivationMs(s.s, s.i / R);
    full.Add(s.name, "cuBLAS+NCCL", ag_no + act + rs_no);
    full.Add(s.name, "AsyncTP", ag_dec + act + rs_dec);
    full.Add(s.name, "FLUX", ag_flux + act + rs_flux);
    full.Add(s.name, "TileLink", ag_tl + act + rs_tl);
  }
  ag.Print("cuBLAS+NCCL");
  rs.Print("cuBLAS+NCCL");
  full.Print("cuBLAS+NCCL");
  ag.Export(&report, "fig8.ag", "cuBLAS+NCCL");
  rs.Export(&report, "fig8.rs", "cuBLAS+NCCL");
  full.Export(&report, "fig8.mlp", "cuBLAS+NCCL");

  // The flow network's hot-path cost of the figure simulations above.
  const double transfers =
      static_cast<double>(std::max<uint64_t>(1, g_transfers));
  const double per_transfer =
      static_cast<double>(g_completion_events) / transfers;
  const double rerates_per_transfer = static_cast<double>(g_rerates) /
                                      transfers;
  const double wakeups_per_transfer =
      static_cast<double>(g_wakeups) / transfers;
  const double empty_wakeups_per_transfer =
      static_cast<double>(g_empty_wakeups) / transfers;
  std::printf("\nflow network: %llu completion events for %llu transfers "
              "(%.2f per transfer), %.2f re-rates per transfer, %.3f "
              "wake-ups per transfer (%.3f empty)\n",
              static_cast<unsigned long long>(g_completion_events),
              static_cast<unsigned long long>(g_transfers), per_transfer,
              rerates_per_transfer, wakeups_per_transfer,
              empty_wakeups_per_transfer);
  report.Record("net.completion_events_per_transfer", per_transfer);
  report.Record("net.rerates_per_transfer", rerates_per_transfer);
  report.Record("net.wakeups_per_transfer", wakeups_per_transfer);
  report.Record("net.empty_wakeups_per_transfer", empty_wakeups_per_transfer);
  report.Record("net.transfers", static_cast<double>(g_transfers));

  bool tuned_ok = false;
  {
    const MlpShape s = Table4Mlp().front();
    tuned_ok = TuneMlp1(s, AgGemmTileLink(s.s, s.h, s.i / R),
                        GemmRsTileLink(s.s, s.i / R, s.h), &report);
  }
  if (!report.trace_path().empty()) {
    SaveGemmRsTrace(Table4Mlp().front(), report.trace_path());
  }
  report.WriteJson();

  std::printf(
      "\nPaper reference (Fig 8 geomeans vs cuBLAS+NCCL): AG+GEMM — FLUX "
      "1.34x, TileLink 1.27x (94.5%% of FLUX), AsyncTP <1x; GEMM+RS — "
      "TileLink 1.25x (1.28x vs FLUX, 2.22x vs AsyncTP); full MLP — TileLink "
      "1.24x (101.4%% of FLUX).\n");
  // Nonzero exit on tuner regression so scripts can gate on this bench.
  return tuned_ok ? 0 : 1;
}
