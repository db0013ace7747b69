// Candidate evaluators connecting the Autotuner to every fused kernel.
//
// Simulate*() builds a fresh timing-only World, constructs the kernel with
// the candidate's knobs and returns the SPMD makespan — the exact quantity
// the paper's figures report. *LowerBound() are analytic sim::CostModel
// bounds — one overlap bound per family, max(compute-only + the kernel
// launch latency every fused kernel pays, wire time) — which the Autotuner
// uses to order candidates and prune them without paying for a DES run.
// Canonical*() map a candidate to the one the planner actually builds (SM
// requests clamped to the role's work, ignored knobs resolved), so the
// search simulates each distinct kernel once. Tune*() wire evaluator,
// bound, canonicalizer and (where one pays) a coarse evaluator into
// Autotuner::Search — the one search schedule every caller (offline
// benches, the e2e estimator, the serving config service) uses.
//
// A family gets a successive-halving coarse round only when its coarse
// sim shrinks the problem itself: attention simulates a quarter of the
// sequence, MoE a quarter of the tokens (with CoarsenReduction on top).
// Collapsing the k-loop alone saves almost nothing — k-loops already run
// as repeated delays, so such a coarse sim costs ~0.9 of a full one — so
// AgGemm/GemmRs (and attention too short to shrink) search exactly:
// ascending-bound order, bound pruning and canonical grouping.
#pragma once

#include "compute/moe_routing.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/autotuner.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/kernels/moe_rs.h"

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

// Ring-RS chunk rows for one per-rank block: ~1/8 of the block, kept a
// multiple of `bm` and a divisor of the block — the layer-default rule
// shared by the e2e estimator's hand-picked configs and the fused
// multi-node kernel's seed. Falls back to `bm` when the block is not a
// multiple of it (the shape is then rejected by the feasibility checks).
int RsBlockRows(int64_t m_per_rank, int bm);

// ---- Feasibility ---------------------------------------------------------
// The one GEMM+RS rule, at every topology: push-only ring, whole nodes, the
// divisibility the kernel TL_CHECKs, and comm roles (ring, plus the NIC
// rail roles across nodes) that leave the GEMM at least one SM — otherwise
// the kernel deadlocks. SimulateGemmRs returns Autotuner::kInfeasible
// where this is false.
bool GemmRsFeasible(const sim::MachineSpec& spec, const MlpPartShape& shape,
                    const TuneCandidate& c);

// ---- Kernel configs -----------------------------------------------------
// The kernel config a candidate builds at a shape (what Simulate*() runs).
// GEMM+RS maps comm_tile_m to the ring chunk rows and the NIC knobs
// (nic_chunk_tiles, staging_depth, reduce_sms) to the rail roles, which
// only a world spanning nodes builds.
AgGemmConfig MakeAgGemmConfig(const MlpPartShape& shape,
                              const TuneCandidate& c);
GemmRsConfig MakeGemmRsConfig(const MlpPartShape& shape,
                              const TuneCandidate& c);
AgMoeConfig MakeAgMoeConfig(const MoeShape& shape, const TuneCandidate& c);
MoeRsConfig MakeMoeRsConfig(const MoeShape& shape, const TuneCandidate& c);

// ---- Full-fidelity evaluators -------------------------------------------
// Simulated makespan; Autotuner::kInfeasible when the candidate violates
// the kernel's divisibility constraints or, for the RS families, when its
// comm roles would claim every SM and deadlock the GEMM.
sim::TimeNs SimulateAgGemm(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c);
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

// ---- Coarse (successive-halving) rounds ---------------------------------
// Collapses the reduction loop to a single k-step: per-tile MMA cost is
// linear in bk, so the makespan is nearly unchanged. The MoE coarse rounds
// apply it on top of their token shrink; on its own it buys no coarse
// round (see the file comment).
TuneCandidate CoarsenReduction(const TuneCandidate& c, int64_t k);

// ---- Planner-canonical candidates ---------------------------------------
// The candidate the planner actually builds from `c`: each comm role's SM
// request clamped to its work items by ResourceBudget::ClaimComm (pull or
// push tiles for AgGemm, ring chunks for GemmRs and MoeRs, reduce chunks
// for MoeRs's reduce_sms; 0 for a DMA AllGather, which claims none),
// AgMoe's sm_push written as the sm_pull kernel it builds, and
// channels_per_rank == 0 resolved by StaticMapping::ResolveChannelsPerRank
// for the AllGather families. Candidates with equal canonical forms build
// the same kernel, so they simulate bitwise alike: Tune*() pass these to
// Autotuner::Search, which simulates each form once. The lower bounds read
// their SM claims off the canonical form. An infeasible candidate is its
// own canonical form. FlashCore and the multinode families have no
// canonicalizer (every candidate is distinct).
TuneCandidate CanonicalAgGemm(const sim::MachineSpec& spec,
                              const MlpPartShape& shape,
                              const TuneCandidate& c);
TuneCandidate CanonicalGemmRs(const sim::MachineSpec& spec,
                              const MlpPartShape& shape,
                              const TuneCandidate& c);
TuneCandidate CanonicalAgMoe(const sim::MachineSpec& spec,
                             const MoeShape& shape, const TuneCandidate& c);
TuneCandidate CanonicalMoeRs(const sim::MachineSpec& spec,
                             const MoeShape& shape, const TuneCandidate& c);

// ---- Analytic lower bounds ----------------------------------------------
// One overlap bound per family: max(compute + launch, wire time), with the
// comm SM claim taken from the canonical candidate. 0 (never prune) for
// infeasible candidates; the evaluator rejects those.
sim::TimeNs AgGemmLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c);
sim::TimeNs GemmRsLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c);
sim::TimeNs FlashCoreLowerBound(const sim::MachineSpec& spec,
                                const FlashShape& shape,
                                const TuneCandidate& c);
sim::TimeNs AgMoeLowerBound(const sim::MachineSpec& spec,
                            const MoeShape& shape, const TuneCandidate& c);
sim::TimeNs MoeRsLowerBound(const sim::MachineSpec& spec,
                            const MoeShape& shape, const TuneCandidate& c);

// ---- Full searches (evaluator, bound, canonicalizer pre-wired) ---------
TuneResult TuneAgGemm(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner = Autotuner());
// One-node GEMM+RS search (TL_CHECKs one node). A world spanning nodes
// searches the joint GEMM x NIC space with multinode::TuneGemmHierRs; both
// score candidates with SimulateGemmRs.
TuneResult TuneGemmRs(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner = Autotuner());
TuneResult TuneFlashCore(const sim::MachineSpec& spec,
                         const FlashShape& shape, const TuningSpace& space,
                         const TuneCandidate& base,
                         const Autotuner& tuner = Autotuner());
TuneResult TuneAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner = Autotuner());
TuneResult TuneMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner = Autotuner());

}  // namespace tilelink::tl
