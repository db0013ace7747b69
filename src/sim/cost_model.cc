#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>

namespace tilelink::sim {

double CostModel::GemmEfficiency(int bm, int bn) const {
  // Saturating curve in tile area, anchored at 128x256 -> ~0.55 (matches the
  // ~0.4-0.5 MFU cuBLAS reaches on the paper's narrow-N TP GEMM shards; see
  // EXPERIMENTS.md calibration notes).
  const double area = static_cast<double>(bm) * static_cast<double>(bn);
  const double full = 128.0 * 256.0;
  const double x = std::min(1.0, area / full);
  // sqrt ramp: 128x128 -> ~0.39, 64x64 -> ~0.19, 32x32 -> ~0.10 of peak.
  double eff = 0.55 * std::sqrt(x);
  // Very skinny tiles (either side < 64) pay an extra fragmentation penalty.
  if (bm < 64 || bn < 64) eff *= 0.8;
  return std::max(eff, 0.05);
}

TimeNs CostModel::GemmTileStep(int bm, int bn, int bk) const {
  const double flops = 2.0 * bm * bn * bk;
  const double per_sm_flops_per_ns =
      spec_.tensor_tflops * 1e3 / spec_.sms_per_device;  // TFLOP/s -> flop/ns
  const double eff = GemmEfficiency(bm, bn);
  const double t = flops / (per_sm_flops_per_ns * eff);
  return std::max<TimeNs>(1, static_cast<TimeNs>(std::llround(t)));
}

TimeNs CostModel::GemmBlockTime(int bm, int bn, int k, int bk) const {
  const int steps = static_cast<int>((k + bk - 1) / bk);
  return BlockPrologue() + steps * GemmTileStep(bm, bn, bk) + BlockEpilogue();
}

TimeNs CostModel::FlashAttnTileStep(int bq, int bkv, int head_dim) const {
  // Two GEMMs (QK^T and PV) plus softmax bookkeeping (~15% overhead).
  const double flops = 2.0 * 2.0 * bq * bkv * head_dim * 1.15;
  const double per_sm_flops_per_ns =
      spec_.tensor_tflops * 1e3 / spec_.sms_per_device;
  const double eff = GemmEfficiency(bq, bkv) * 0.9;  // softmax interleave
  const double t = flops / (per_sm_flops_per_ns * eff);
  return std::max<TimeNs>(1, static_cast<TimeNs>(std::llround(t)));
}

TimeNs CostModel::MemoryBound(uint64_t bytes, int sms_used) const {
  // Achievable bandwidth ramps with SM count, saturating at ~60% occupancy.
  const double frac = std::min(
      1.0, static_cast<double>(sms_used) / (0.6 * spec_.sms_per_device));
  const double bw = spec_.hbm_gbps * std::max(frac, 0.02);  // bytes/ns
  const double t = static_cast<double>(bytes) / bw;
  return std::max<TimeNs>(1, static_cast<TimeNs>(std::llround(t)));
}

TimeNs CostModel::GemmComputeTime(int64_t m, int64_t n, int64_t k, int bm,
                                  int bn, int bk, int sms) const {
  const int64_t tiles = ((m + bm - 1) / bm) * ((n + bn - 1) / bn);
  const int64_t waves = (tiles + sms - 1) / std::max(sms, 1);
  const int64_t k_steps = (k + bk - 1) / bk;
  // Persistent blocks: one prologue/epilogue per block, `waves` tiles each.
  return BlockPrologue() + waves * k_steps * GemmTileStep(bm, bn, bk) +
         BlockEpilogue();
}

TimeNs CostModel::NvlinkTransfer(uint64_t bytes) const {
  const double t = static_cast<double>(bytes) / spec_.nvlink_gbps;  // bytes/ns
  return spec_.nvlink_latency +
         std::max<TimeNs>(1, static_cast<TimeNs>(std::llround(t)));
}

}  // namespace tilelink::sim
