// Kernel families: how each fused kernel is searched, one record each.
//
// A KernelFamily holds everything one search of one kernel at one shape
// needs: the TunedConfigCache kind and key dims, the machine, the
// hand-picked seed and the space around it, and the family's feasibility
// rule, full-fidelity evaluator, lower bound, coarse (successive-halving)
// evaluator and planner canonicalizer. One factory per family builds it and
// owns the seed and space rules; Tune() runs Autotuner::Search on it — the
// one search schedule every caller (offline benches, the e2e estimator, the
// serving config service) uses. A caller that pins a seed or a space
// (fig8's Mlp() search, the tests' toy spaces) overwrites the field.
//
// The evaluators (Simulate*()) build a fresh timing-only World, construct
// the kernel with the candidate's knobs and return the SPMD makespan — the
// exact quantity the paper's figures report. The lower bounds are analytic
// sim::CostModel overlap bounds, max(compute-only + the kernel launch
// latency every fused kernel pays, wire time), which the Autotuner uses to
// order candidates and prune them without paying for a DES run. Only the
// families whose bound prunes carry one: one-node AgGemm and GemmRs, and
// FlashCore. AgMoe and MoeRs carry none: one pruned none of the fig11,
// serving or perfbench MoE candidates when all of those searches halved.
// The canonicalizers map a candidate to the one the planner actually
// builds (SM requests clamped to the role's work, ignored knobs resolved),
// so the search simulates each distinct kernel once.
//
// A family gets a successive-halving coarse round only when its coarse
// sim shrinks the problem itself: the MoE families simulate a quarter of
// the tokens (with the reduction loop collapsed on top), and only where
// that quarter holds at least one 1024-token-per-rank granule. Collapsing
// the k-loop alone saves almost nothing — k-loops already run as repeated
// delays, so such a coarse sim costs ~0.9 of a full one — so the GEMM
// families and smaller MoE shapes search exactly. So do FlashCore and the
// DP sync (multinode_tuning.h): their quarter-sequence and quarter-volume
// rounds did shrink the problem, but the exact search found cheaper
// configs, and FlashCore's bound prunes it to fewer sims than halving ran.
// An exact search is ascending-bound order, bound pruning and canonical
// grouping.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compute/moe_routing.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/autotuner.h"
#include "tilelink/kernels/ag_gemm_hier.h"
#include "tilelink/kernels/gemm_rs.h"

namespace tilelink::tl {

// One MLP part: [m, k] x [k, n] with m row-sharded (AG+GEMM) or n produced
// as partials to reduce-scatter (GEMM+RS).
struct MlpPartShape {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
};

// Compute-only flash core ([bh, sq] query block against [bh, skv] KV); the
// e2e model sweep tunes this for the sequence-parallel attention block,
// whose communication is fused into the QKV/out projections instead.
struct FlashShape {
  int64_t batch_heads = 0;
  int64_t seq_q = 0;
  int64_t seq_kv = 0;
  int64_t head_dim = 128;
};

// One MoE layer part: m global tokens, `hidden` token features, and
// inner = I/R local expert columns.
struct MoeShape {
  int64_t m = 0;
  int64_t hidden = 0;
  int64_t inner = 0;
  int num_experts = 0;
  int topk = 0;
};

// The e2e layer GEMM tiling: 128x256 tiles with bk ~ k/8 (rounded up to a
// multiple of 64). Total simulated GEMM time is invariant in bk (tile-step
// cost is linear in FLOPs), so a large bk shrinks event counts without
// changing results. The GEMM and MoE seeds tile with it, and so do the e2e
// estimator's non-overlapped baselines.
compute::GemmTiling LayerTiling(int64_t k);

// Ring-RS chunk rows for one per-rank block: ~1/8 of the block, kept a
// multiple of `bm` and a divisor of the block — the layer-default rule
// shared by the GEMM+RS and MoE part-2 seeds and the fig8 trace config.
// Falls back to `bm` when the block is not a multiple of it (the shape is
// then rejected by the feasibility checks).
int RsBlockRows(int64_t m_per_rank, int bm);

// ---- The record -----------------------------------------------------------
struct KernelFamily {
  std::string kind;           // TunedConfigCache kind, e.g. "gemm_rs"
  std::vector<int64_t> dims;  // the shape part of the cache key
  sim::MachineSpec spec;
  TuneCandidate seed;  // hand-picked: the untuned config and search anchor
  TuningSpace space;
  std::function<bool(const TuneCandidate&)> feasible;
  Autotuner::EvalFn evaluate;        // kInfeasible where !feasible
  Autotuner::BoundFn lower_bound;    // null: visit in enumeration order
  Autotuner::EvalFn coarse;          // null: no halving round
  Autotuner::CanonicalFn canonical;  // null: every candidate distinct

  std::string Key() const;  // TunedConfigCache::Key(kind, dims, spec)
};

// Autotuner::Search over the family's space from its seed, with its bound,
// coarse round (if any) and canonicalizer.
TuneResult Tune(const KernelFamily& family,
                const Autotuner& tuner = Autotuner());

// ---- Factories --------------------------------------------------------------
// The seeds tile with LayerTiling. They reduce to the paper's figure
// defaults at training-scale shapes and adapt the comm tiling to per-rank
// shards too small for them (ragged decode batches), so every seed is
// feasible at every per-rank row count that is a multiple of 32 (the
// serving quantum). The one-node GEMM families search Mlp() at per-rank
// shards of 1024 rows or more and ServingMlp() below.

// AG+GEMM: the fused hierarchical "ag_gemm_hier" when the world spans
// nodes and its seed is feasible (searched exactly over AgGemmHier()), else
// the single-fabric "ag_gemm" (the spec in the cache key keeps a multi-node
// fallback apart from the one-node searches).
KernelFamily AgGemmFamily(const sim::MachineSpec& spec,
                          const MlpPartShape& shape);
// GEMM+RS: one kernel at every topology. Across nodes it adds the NIC rail
// roles and searches the joint GEMM x NIC space GemmHierRs() exactly under
// kind "gemm_hier_rs"; the bound and canonicalizer model the one-node ring,
// so only the one-node family ("gemm_rs") carries them.
KernelFamily GemmRsFamily(const sim::MachineSpec& spec,
                          const MlpPartShape& shape);
// Flash core over Attention(), searched exactly with its bound.
KernelFamily FlashCoreFamily(const sim::MachineSpec& spec,
                             const FlashShape& shape);
// The MoE parts under `routing` (shared with the record's evaluators),
// drawn from `routing_seed`, which only names it in the cache key. Where a
// quarter of the tokens holds at least 1024 per rank, both halve on that
// quarter with a fresh routing of the same distribution, drawn by the first
// coarse evaluation; smaller shapes search exactly.
KernelFamily AgMoeFamily(const sim::MachineSpec& spec, const MoeShape& shape,
                         std::shared_ptr<const compute::MoeRouting> routing,
                         uint64_t routing_seed);
KernelFamily MoeRsFamily(const sim::MachineSpec& spec, const MoeShape& shape,
                         std::shared_ptr<const compute::MoeRouting> routing,
                         uint64_t routing_seed);

// ---- Feasibility and kernel configs ------------------------------------
// The one GEMM+RS rule, at every topology: push-only ring, whole nodes, the
// divisibility the kernel TL_CHECKs, and comm roles (ring, plus the NIC
// rail roles across nodes) that leave the GEMM at least one SM — otherwise
// the kernel deadlocks. SimulateGemmRs returns Autotuner::kInfeasible
// where this is false.
bool GemmRsFeasible(const sim::MachineSpec& spec, const MlpPartShape& shape,
                    const TuneCandidate& c);
// Fused hierarchical AG+GEMM: a world of whole nodes (at least two) and AG
// chunk rows dividing the per-rank shard.
bool AgGemmHierFeasible(const sim::MachineSpec& spec,
                        const MlpPartShape& shape, const TuneCandidate& c);

// The GEMM+RS config a candidate builds at a shape: comm_tile_m is the ring
// chunk rows and the NIC knobs (nic_chunk_tiles, staging_depth, reduce_sms)
// map to the rail roles, which only a world spanning nodes builds.
GemmRsConfig MakeGemmRsConfig(const MlpPartShape& shape,
                              const TuneCandidate& c);
// The AgGemmHier config: comm_tile_m is the AG chunk rows,
// nic_chunk_tiles the AG chunks per NIC rail message, staging_depth the
// in-flight NIC messages per rail peer.
AgGemmHierConfig AgGemmHierFromCandidate(const MlpPartShape& shape,
                                         const TuneCandidate& c);

// ---- Full-fidelity evaluators -------------------------------------------
// Simulated makespan; Autotuner::kInfeasible when the candidate violates
// the kernel's divisibility constraints or, for the RS families, when its
// comm roles would claim every SM and deadlock the GEMM.
sim::TimeNs SimulateAgGemm(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c);
sim::TimeNs SimulateAgGemmHier(const sim::MachineSpec& spec,
                               const MlpPartShape& shape,
                               const TuneCandidate& c);
sim::TimeNs SimulateGemmRs(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c);
sim::TimeNs SimulateFlashCore(const sim::MachineSpec& spec,
                              const FlashShape& shape,
                              const TuneCandidate& c);
sim::TimeNs SimulateAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                          const compute::MoeRouting& routing,
                          const TuneCandidate& c);
sim::TimeNs SimulateMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                          const compute::MoeRouting& routing,
                          const TuneCandidate& c);
// Both MoE parts chained per rank inside one world (the e2e layer shape).
sim::TimeNs SimulateMoeLayer(const sim::MachineSpec& spec,
                             const MoeShape& shape,
                             const compute::MoeRouting& routing,
                             const TuneCandidate& part1,
                             const TuneCandidate& part2);

}  // namespace tilelink::tl
