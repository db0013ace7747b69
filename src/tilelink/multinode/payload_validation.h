// End-to-end validation drivers for the functional multi-node collectives:
// build a functional World with the ConsistencyChecker enabled, fill every
// rank's input with a deterministic integer-valued lattice (fp32 sums of
// small integers are exact, so the multi-rank reductions are bit-exact
// under any accumulation order), run the collective with a payload
// attached, and compare every rank's output bit-for-bit against the
// single-rank references.
//
// Every driver takes an optional sim::FaultPlan, attached to the World
// before the run. The plan carries the §4.2 fault injection: with
// FaultPlan::ReorderRailChunk(src, chunk) a safe run's `bit_exact &&
// violations == 0` flips to `violations >= 1` — the checker catches the
// dropped prefix-publication ordering on the NIC stage instead of letting a
// silently wrong (or silently right-by-luck) answer through. Transient
// drops/spikes exercise the link roles' retry path and rail degrades
// exercise failover, while the bit-exactness and checker gates stay
// exactly as strict as the fault-free run. The caller keeps the plan alive
// for the duration of the call.
#pragma once

#include <cstdint>

#include "sim/fault.h"
#include "sim/machine_spec.h"
#include "tilelink/kernels/ag_gemm_hier.h"
#include "tilelink/kernels/gemm_rs.h"
#include "tilelink/multinode/hier_collectives.h"

namespace tilelink::sim {
class TraceRecorder;
}  // namespace tilelink::sim

namespace tilelink::multinode {

struct PayloadReport {
  bool bit_exact = false;     // every rank matched its reference
  std::size_t violations = 0; // consistency violations found
  sim::TimeNs makespan = 0;   // identical to the timing-only makespan
  sim::FaultStats faults;     // drops/spikes/timeouts injected + retries run
  // Checker pressure: intervals still live after the end-of-run retirement
  // and intervals retired over the whole run (live + retired = total
  // intervals audited).
  std::size_t checker_live = 0;
  std::size_t checker_retired = 0;
  // Checker index work: audits (RecordWrite/CheckRead calls) and the live
  // intervals they looked at.
  uint64_t checker_audits = 0;
  uint64_t checker_visited = 0;

  bool ok() const { return bit_exact && violations == 0; }
};

// Every driver optionally records a fabric-wide timeline: pass a recorder
// (and a pid base when several validations share one file) and the driver
// attaches it to its World before constructing the collective, so signal
// publications, chunk spans, counters and fault instants all land in it.
// Tracing never changes the reported makespan (pinned by test_trace).

PayloadReport ValidateHierAllGather(const sim::MachineSpec& spec,
                                    int64_t num_tiles, uint64_t tile_bytes,
                                    int64_t tile_elems, const HierConfig& cfg,
                                    const sim::FaultPlan* plan = nullptr,
                                    sim::TraceRecorder* trace = nullptr,
                                    int trace_pid_base = 0);
PayloadReport ValidateFlatAllGather(const sim::MachineSpec& spec,
                                    int64_t num_tiles, uint64_t tile_bytes,
                                    int64_t tile_elems, const HierConfig& cfg,
                                    const sim::FaultPlan* plan = nullptr,
                                    sim::TraceRecorder* trace = nullptr,
                                    int trace_pid_base = 0);
PayloadReport ValidateHierReduceScatter(const sim::MachineSpec& spec,
                                        int64_t num_tiles, uint64_t tile_bytes,
                                        int64_t tile_elems,
                                        const HierConfig& cfg,
                                        const sim::FaultPlan* plan = nullptr,
                                        sim::TraceRecorder* trace = nullptr,
                                        int trace_pid_base = 0);
PayloadReport ValidateFlatReduceScatter(const sim::MachineSpec& spec,
                                        int64_t num_tiles, uint64_t tile_bytes,
                                        int64_t tile_elems,
                                        const HierConfig& cfg,
                                        const sim::FaultPlan* plan = nullptr,
                                        sim::TraceRecorder* trace = nullptr,
                                        int trace_pid_base = 0);
PayloadReport ValidateDpAllReduce(const sim::MachineSpec& spec,
                                  int64_t num_tiles, uint64_t tile_bytes,
                                  int64_t tile_elems, const HierConfig& cfg,
                                  const sim::FaultPlan* plan = nullptr,
                                  sim::TraceRecorder* trace = nullptr,
                                  int trace_pid_base = 0);

// Fused-kernel validation: run GemmRs on a functional world with
// integer-lattice A/B (fp32 sums of small integers are exact, so the
// multi-stage reduction is bit-exact under any accumulation order) and
// compare every rank's output block bit-for-bit against the single-rank
// reference sum(A_p @ B_p) over all ranks p. Every ring/rail chunk goes
// through the compiled kernel's checker instrumentation, so `violations`
// counts real consistency races in the fused pipeline.
PayloadReport ValidateGemmHierRs(const sim::MachineSpec& spec,
                                 const tl::GemmRsConfig& cfg,
                                 const sim::FaultPlan* plan = nullptr,
                                 sim::TraceRecorder* trace = nullptr,
                                 int trace_pid_base = 0);

// Generated-kernel validation: run AgGemmHier on a functional world and
// compare every rank's [M, N] output bit-for-bit against gathered-A @ B_r.
// Every publish/ring-forward/rail chunk goes through the compiled kernel's
// checker instrumentation (including the per-run strip registration).
PayloadReport ValidateAgGemmHier(const sim::MachineSpec& spec,
                                 const tl::AgGemmHierConfig& cfg,
                                 const sim::FaultPlan* plan = nullptr,
                                 sim::TraceRecorder* trace = nullptr,
                                 int trace_pid_base = 0);

}  // namespace tilelink::multinode
