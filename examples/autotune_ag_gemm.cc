// Example: search the §3.1 decoupled design space of the AG+GEMM kernel
// with the cost-model autotuner, then inspect the winning kernel. Exits
// nonzero if the winner costs more than the seed config or if re-simulating
// it does not reproduce the cost the search reported.
//
// Runs on the small Test machine so it finishes in well under a second:
//   ./build/autotune_ag_gemm
#include <cstdio>

#include "runtime/world.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/kernels/ag_gemm.h"

int main() {
  using namespace tilelink;
  using namespace tilelink::tl;

  const sim::MachineSpec spec = sim::MachineSpec::Test(/*num_devices=*/4,
                                                       /*sms=*/16);
  const MlpPartShape shape{512, 128, 128};

  TuneCandidate base;
  base.gemm = compute::GemmTiling{32, 32, 16};
  base.comm_sms = 4;

  TuningSpace space;
  space.CommTileM({16, 32, 64, 128})
      .CommSms({2, 4, 8})
      .Resources({CommResource::kSmPull, CommResource::kSmPush,
                  CommResource::kDma})
      .Orders({TileOrder::kRowMajor, TileOrder::kOwnerFirst});

  // The AG+GEMM family at this shape, searched over the space above from
  // the hand-set seed instead of the e2e layer defaults.
  KernelFamily family = AgGemmFamily(spec, shape);
  family.seed = base;
  family.space = space;
  Autotuner::Options opts;
  opts.verbose = true;
  const TuneResult result = Tune(family, Autotuner(opts));

  std::printf("\nbest: %s  (%.3f us; %zu simulated, %d pruned, %d "
              "infeasible)\n\n",
              result.best.Describe().c_str(),
              static_cast<double>(result.best_cost) / 1e3,
              result.evaluated.size(), result.pruned, result.infeasible);

  // Rebuild the winner and show the compiled tile-level listing.
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  AgGemmConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.k;
  cfg.n = shape.n;
  cfg.gemm = result.best.gemm;
  cfg.comm_tile_m = result.best.comm_tile_m;
  cfg.comm = result.best.comm;
  cfg.comm_sms = result.best.comm_sms;
  cfg.order = result.best.order;
  AgGemm kernel(world, cfg);
  std::printf("%s", kernel.listing().c_str());

  const sim::TimeNs seed_cost = family.evaluate(base);
  const sim::TimeNs rerun_cost = family.evaluate(result.best);
  if (result.best_cost > seed_cost) {
    std::fprintf(stderr, "FAIL: tuned %.3f us > seed %.3f us\n",
                 static_cast<double>(result.best_cost) / 1e3,
                 static_cast<double>(seed_cost) / 1e3);
    return 1;
  }
  if (rerun_cost != result.best_cost) {
    std::fprintf(stderr,
                 "FAIL: re-simulated winner %.3f us != searched %.3f us\n",
                 static_cast<double>(rerun_cost) / 1e3,
                 static_cast<double>(result.best_cost) / 1e3);
    return 1;
  }
  std::printf("tuned %.3f us <= seed %.3f us; re-simulation matches\n",
              static_cast<double>(result.best_cost) / 1e3,
              static_cast<double>(seed_cost) / 1e3);
  return 0;
}
