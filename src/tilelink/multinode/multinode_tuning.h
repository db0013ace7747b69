// Evaluators for the multi-node collectives — the kernel_tuning analog one
// level up: Simulate*() builds a fresh timing-only World on the multi-node
// MachineSpec, runs the collective SPMD and returns the makespan.
// DpSyncFamily() is the DP gradient sync's tl::KernelFamily: the NIC-knob
// space TuningSpace::MultiNode() with a coarse round on a quarter of the
// volume. The fused multi-node kernels (GEMM+RS across nodes,
// ag_gemm_hier) are tl::GemmRsFamily and tl::AgGemmFamily on a world
// spanning nodes; this file keeps the layer-level compose baselines they
// must beat.
#pragma once

#include <cstdint>

#include "models/model_zoo.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/multinode/hier_collectives.h"

namespace tilelink::multinode {

// Per-rank parameter-gradient bytes of one transformer layer under TP
// sharding (bf16): the volume each DP group member must all-reduce.
uint64_t LayerGradBytes(const models::ModelConfig& model, int tp);

// ---- Collective makespans (fresh timing-only world per call) -------------
sim::TimeNs SimulateHierAllGather(const sim::MachineSpec& spec,
                                  int64_t num_tiles, uint64_t tile_bytes,
                                  const HierConfig& cfg);
sim::TimeNs SimulateFlatAllGather(const sim::MachineSpec& spec,
                                  int64_t num_tiles, uint64_t tile_bytes,
                                  const HierConfig& cfg);
sim::TimeNs SimulateHierReduceScatter(const sim::MachineSpec& spec,
                                      int64_t num_tiles, uint64_t tile_bytes,
                                      const HierConfig& cfg);
sim::TimeNs SimulateFlatReduceScatter(const sim::MachineSpec& spec,
                                      int64_t num_tiles, uint64_t tile_bytes,
                                      const HierConfig& cfg);

// ---- DP gradient sync ----------------------------------------------------
// Splits `grad_bytes` into tiles (tile count adapted to the volume so event
// counts stay bounded) and runs DpAllReduce across the node-spanning DP
// groups; the TuneCandidate supplies the NIC knobs via
// HierConfig::FromCandidate.
sim::TimeNs SimulateDpSync(const sim::MachineSpec& spec, uint64_t grad_bytes,
                           const tl::TuneCandidate& c);
// Kind "dp_sync", keyed by the volume. Its seed is the hand-picked two-node
// NIC knobs (4-tile chunks, staging depth 2): the defaults baseline the
// benches gate the tuner against. Every candidate is feasible (the
// collective clamps its knobs).
tl::KernelFamily DpSyncFamily(const sim::MachineSpec& spec,
                              uint64_t grad_bytes);

// ---- Layer-level compose baselines -----------------------------------------
// What the fused multi-node kernels must beat, scored under the fused
// kernels' feasibility rules.

// The GEMM producer as a compute-only kernel, then HierReduceScatter as a
// separate collective (one ring-chunk-sized tile per RS tile).
sim::TimeNs SimulateGemmThenHierRs(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c);

// HierAllGather over the activation shards, then the GEMM as a
// compute-only kernel.
sim::TimeNs SimulateHierAgThenGemm(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c);

}  // namespace tilelink::multinode
