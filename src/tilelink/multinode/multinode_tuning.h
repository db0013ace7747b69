// Evaluators and searches for the multi-node collectives — the
// kernel_tuning analog one level up: Simulate*() builds a fresh timing-only
// World on the multi-node MachineSpec, runs the collective SPMD and returns
// the makespan; TuneDpSync() wires the evaluator and a coarse round (the
// same evaluator on a quarter of the volume) into Autotuner::Search over
// the TuningSpace::MultiNode() axes. The fused-kernel
// searches (TuneGemmHierRs, TuneAgGemmHier) have no coarse round: their
// only cheapening would collapse the k-loop, which saves almost nothing,
// so they search exactly, simulating every candidate in enumeration
// order. They carry no lower bound either: an overlap bound over the
// GEMM, NIC rail and NVLink ring wire times pruned none of the
// bench_multinode_fabric candidates and changed no result.
#pragma once

#include <cstdint>

#include "models/model_zoo.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/kernels/ag_gemm_hier.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/multinode/hier_collectives.h"

namespace tilelink::multinode {

// Per-rank parameter-gradient bytes of one transformer layer under TP
// sharding (bf16): the volume each DP group member must all-reduce.
uint64_t LayerGradBytes(const models::ModelConfig& model, int tp);

// The hand-picked two-node DP-sync knobs: the seed of every NIC-knob
// search and the defaults baseline the benches gate the tuner against.
tl::TuneCandidate DefaultDpSyncCandidate();

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
// Full search over the NIC knobs (chunk tiles, staging depth), seeded so a
// tuned config is never worse than `base`.
tl::TuneResult TuneDpSync(const sim::MachineSpec& spec, uint64_t grad_bytes,
                          const tl::TuningSpace& space,
                          const tl::TuneCandidate& base,
                          const tl::Autotuner& tuner = tl::Autotuner());

// ---- Fused GEMM + hierarchical ReduceScatter -----------------------------
// The first multi-node fused kernel: tl::GemmRs on a world spanning nodes
// (kernels/gemm_rs), scored by the one evaluator tl::SimulateGemmRs under
// the one rule tl::GemmRsFeasible. Its GEMM tile axes couple with the NIC
// knobs into one joint space, searched exactly by the same autotuner and
// gated against the layer-level compose below.

// The hand-picked seed: the GemmRs layer defaults plus the two-node NIC
// defaults. `tiling` is the GEMM tiling the kernel will actually run
// (comm_tile_m is derived from its bm, so callers overriding the tiling —
// e.g. the e2e estimator's coarse bk — must pass it here, not patch the
// returned candidate). bm shrinks until it divides the per-rank shard, so
// the seed meets the kernel's divisibility whenever tp divides m.
tl::TuneCandidate DefaultGemmHierRsCandidate(
    const tl::MlpPartShape& shape, int tp,
    const compute::GemmTiling& tiling = {128, 256, 64});

// Layer-level compose baseline the fused kernel must beat: the same GEMM
// producer as a compute-only kernel, then HierReduceScatter as a separate
// collective (one ring-chunk-sized tile per RS tile).
sim::TimeNs SimulateGemmThenHierRs(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c);

tl::TuneResult TuneGemmHierRs(const sim::MachineSpec& spec,
                              const tl::MlpPartShape& shape,
                              const tl::TuningSpace& space,
                              const tl::TuneCandidate& base,
                              const tl::Autotuner& tuner = tl::Autotuner());

// ---- Fused hierarchical AllGather + GEMM ---------------------------------
// The first planner-generated kernel (kernels/ag_gemm_hier): the NIC rail
// and the node-local NVLink ring gather the activation shards while the
// GEMM consumes arrived rows, searched over TuningSpace::AgGemmHier() and
// gated against the AllGather-then-GEMM compose below.

// Candidate -> kernel config: comm_tile_m is the AG chunk rows,
// nic_chunk_tiles the AG chunks per NIC rail message, staging_depth the
// in-flight NIC messages per rail peer.
tl::AgGemmHierConfig AgGemmHierFromCandidate(const tl::MlpPartShape& shape,
                                             const tl::TuneCandidate& c);

// The hand-picked seed: ag_gemm layer defaults plus the two-node NIC
// defaults; comm_tile_m is derived from the tiling the kernel will run.
tl::TuneCandidate DefaultAgGemmHierCandidate(
    const tl::MlpPartShape& shape, int tp,
    const compute::GemmTiling& tiling = {128, 256, 64});

bool AgGemmHierFeasible(const sim::MachineSpec& spec,
                        const tl::MlpPartShape& shape,
                        const tl::TuneCandidate& c);

sim::TimeNs SimulateAgGemmHier(const sim::MachineSpec& spec,
                               const tl::MlpPartShape& shape,
                               const tl::TuneCandidate& c);

// Layer-level compose baseline the fused kernel must beat: HierAllGather
// over the activation shards, then the GEMM as a compute-only kernel.
sim::TimeNs SimulateHierAgThenGemm(const sim::MachineSpec& spec,
                                   const tl::MlpPartShape& shape,
                                   const tl::TuneCandidate& c);

tl::TuneResult TuneAgGemmHier(const sim::MachineSpec& spec,
                              const tl::MlpPartShape& shape,
                              const tl::TuningSpace& space,
                              const tl::TuneCandidate& base,
                              const tl::Autotuner& tuner = tl::Autotuner());

}  // namespace tilelink::multinode
