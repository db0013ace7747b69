// Candidate evaluators connecting the Autotuner to every fused kernel.
//
// Simulate*() builds a fresh timing-only World, constructs the kernel with
// the candidate's knobs and returns the SPMD makespan — the exact quantity
// the paper's figures report. Each Tune*() scores its successive-halving
// round with a cheap coarse run of the same evaluator, built in its coarse
// lambda: the GEMM reduction loop is collapsed to one k-step
// (CoarsenReduction; simulated time is nearly invariant in bk, so the
// ranking is preserved at ~an-order-of-magnitude fewer events), attention
// shrinks the sequence extent and MoE the token count.
// *LowerBound() are analytic sim::CostModel bounds —
// one overlap bound per family, max(compute-only + the kernel launch
// latency every fused kernel pays, wire time) — which the Autotuner uses
// to prune candidates without paying for a DES run. Tune*() wire
// evaluator, coarse evaluator and bound into Autotuner::Search — the one
// search schedule every caller (offline benches, the e2e estimator, the
// serving config service) uses. Families whose shape is too small to
// coarsen (short attention sequences) search plain, since a "coarse" score
// would then cost a full run.
#pragma once

#include "compute/moe_routing.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/autotuner.h"

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

// ---- Full-fidelity evaluators -------------------------------------------
// Simulated makespan; Autotuner::kInfeasible when the candidate violates
// the kernel's divisibility constraints.
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
// linear in bk, so the makespan is nearly unchanged while the event count
// drops by ~k/bk. Shared by every GEMM-backed coarse round.
TuneCandidate CoarsenReduction(const TuneCandidate& c, int64_t k);

// ---- Analytic lower bounds ----------------------------------------------
// One overlap bound per family: max(compute + launch, wire time). 0 (never
// prune) for infeasible candidates; the evaluator rejects those.
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

// ---- Full searches (evaluator + coarse + bound pre-wired) ---------------
TuneResult TuneAgGemm(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner = Autotuner());
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
