// Ablation (paper §3.1, Figure 2a): decoupled tile sizes. Sweeps the
// communication tile independently of the (fixed) GEMM tile for SM-pull
// AG+GEMM via TuningSpace/Autotuner — the decoupled optimum differs from
// the coupled choice — and shows the effect of forcing comm tile == GEMM
// tile (FLUX-style coupling).
#include "bench/bench_common.h"
#include "tilelink/builder/kernel_tuning.h"

int main() {
  using namespace tilelink;
  using namespace tilelink::bench;
  const sim::MachineSpec spec = sim::MachineSpec::H800x8();
  const tl::MlpPartShape shape{8192, 4096, 11008 / 8};

  tl::TuneCandidate base;
  base.gemm = CoarseTiling(shape.k);
  base.comm = tl::CommResource::kSmPull;
  base.order = tl::TileOrder::kOwnerFirst;

  std::printf("=== Ablation: communication tile size (AG+GEMM MLP-1, SM-pull, "
              "GEMM tile fixed at %dx%d) ===\n", base.gemm.bm, base.gemm.bn);
  // The sweep the paper plots: comm tile x comm SMs, every candidate scored
  // by the simulator (one [tune] line each).
  tl::TuningSpace space;
  space.CommTileM({64, 128, 256, 512, 1024}).CommSms({8, 20, 32});
  tl::Autotuner::Options opts;
  opts.verbose = true;
  tl::KernelFamily family = tl::AgGemmFamily(spec, shape);
  family.seed = base;
  family.space = space;
  const tl::TuneResult result = tl::Tune(family, tl::Autotuner(opts));
  std::printf("\ndecoupled optimum: %s  %.3f ms\n",
              result.best.Describe().c_str(),
              static_cast<double>(result.best_cost) / 1e6);

  // FLUX-style coupling: comm tile forced equal to the GEMM m-tile.
  tl::TuneCandidate coupled = base;
  coupled.comm_tile_m = base.gemm.bm;
  coupled.comm_sms = result.best.comm_sms;
  const sim::TimeNs coupled_cost = family.evaluate(coupled);
  std::printf("coupled (comm tile == GEMM tile %d): %.3f ms  (%.2fx of "
              "decoupled optimum)\n",
              base.gemm.bm, static_cast<double>(coupled_cost) / 1e6,
              static_cast<double>(coupled_cost) /
                  static_cast<double>(result.best_cost));
  std::printf(
      "\nSmaller comm tiles release consumer barriers sooner (better overlap)"
      " but pay more per-message latency; more comm SMs want smaller tiles "
      "to stay busy (paper §3.1: tile size must match the cores assigned).\n");
  return 0;
}
