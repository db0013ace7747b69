// Quickstart: build and run one overlapped AllGather+GEMM kernel with
// TileLink's tile-centric primitives on a small simulated 4-GPU machine,
// verify its numerics against a serial reference, and print the generated
// (PTX-like) listing plus the simulated timeline comparison. Exits nonzero
// on a numeric mismatch or a consistency-checker violation.
//
//   ./build/quickstart
#include <cstdio>

#include "baselines/mlp_baselines.h"
#include "common/rng.h"
#include "compute/gemm.h"
#include "tensor/tensor_ops.h"
#include "tilelink/kernels/ag_gemm.h"

using namespace tilelink;

int main() {
  // A small functional world: 4 simulated GPUs, real numerics.
  rt::World world(sim::MachineSpec::Test(/*num_devices=*/4, /*sms=*/16),
                  rt::ExecMode::kFunctional);
  world.checker().set_enabled(true);  // audit acquire/release ordering

  // AG+GEMM: gather a row-sharded activation while the GEMM consumes it.
  tl::AgGemmConfig cfg;
  cfg.m = 256;  // global rows (64 per rank)
  cfg.k = 64;
  cfg.n = 96;
  cfg.gemm = compute::GemmTiling{32, 32, 16};
  cfg.comm_tile_m = 32;
  cfg.comm = tl::CommResource::kSmPull;  // comm on processing cores
  cfg.comm_sms = 4;
  tl::AgGemm kernel(world, cfg);

  // Fill the sharded input and per-rank weights.
  Rng rng(7);
  for (int r = 0; r < world.size(); ++r) {
    FillRandom(kernel.a_shards()[static_cast<size_t>(r)], rng, 0.5f);
    FillRandom(kernel.b()[static_cast<size_t>(r)], rng, 0.5f);
  }

  std::printf("Generated kernel listing:\n%s\n", kernel.listing().c_str());

  // Run SPMD: every rank launches the fused kernel.
  const sim::TimeNs overlapped = world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });

  // Serial baseline on an identical fresh machine.
  rt::World world2(sim::MachineSpec::Test(4, 16), rt::ExecMode::kFunctional);
  baselines::MlpPartConfig base_cfg{cfg.m, cfg.k, cfg.n, cfg.gemm};
  baselines::NonOverlapAgGemm baseline(world2, base_cfg);
  for (int r = 0; r < world2.size(); ++r) {
    CopyTensor(kernel.a_shards()[static_cast<size_t>(r)],
               baseline.a_shards()[static_cast<size_t>(r)]);
    CopyTensor(kernel.b()[static_cast<size_t>(r)],
               baseline.b()[static_cast<size_t>(r)]);
  }
  const sim::TimeNs serial = world2.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await baseline.Run(ctx); });

  // Verify numerics match the serial implementation exactly.
  float max_diff = 0.0f;
  for (int r = 0; r < world.size(); ++r) {
    max_diff = std::max(max_diff,
                        MaxAbsDiff(kernel.c()[static_cast<size_t>(r)],
                                   baseline.c()[static_cast<size_t>(r)]));
  }
  std::printf("overlapped: %.1f us   serial: %.1f us   speedup: %.2fx\n",
              sim::ToUs(overlapped), sim::ToUs(serial),
              static_cast<double>(serial) / overlapped);
  std::printf("max |overlapped - serial| = %g\n", max_diff);
  std::printf("consistency violations: %zu\n",
              world.checker().violations().size());
  return max_diff < 1e-4f && world.checker().violations().empty() ? 0 : 1;
}
