#include "tilelink/multinode/payload_validation.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "runtime/world.h"
#include "sim/trace.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace tilelink::multinode {
namespace {

std::vector<rt::Buffer*> AllocFilled(rt::World& world, const char* name,
                                     int64_t elems, bool fill) {
  std::vector<rt::Buffer*> bufs = world.AllocSymmetric(name, elems);
  if (fill) {
    for (int r = 0; r < world.size(); ++r) {
      Tensor t(bufs[static_cast<size_t>(r)], {elems}, DType::kFP32);
      FillIntLattice(t, /*seed=*/static_cast<uint32_t>(r) * 7919u + 1u);
    }
  }
  return bufs;
}

// Bit-for-bit comparison of a whole buffer against its reference.
bool BufferMatches(rt::Buffer* buf, const std::vector<float>& ref) {
  if (buf->num_elems() != static_cast<int64_t>(ref.size())) return false;
  return ref.empty() || std::memcmp(buf->data().data(), ref.data(),
                                    ref.size() * sizeof(float)) == 0;
}

// One row or column of a 2-D view, read by pointer: element j sits at
// base[j * stride].
struct Strided {
  const float* base;
  int64_t stride;
  float operator[](int64_t j) const { return base[j * stride]; }
};
// Row i of a 2-D view.
Strided Row(const Tensor& t, int64_t i) {
  TL_DCHECK(i >= 0 && i < t.dim(0));
  return Strided{t.buffer()->data().data() + t.offset() + i * t.strides()[0],
                 t.strides()[1]};
}
// Column j of a 2-D view.
Strided Col(const Tensor& t, int64_t j) {
  TL_DCHECK(j >= 0 && j < t.dim(1));
  return Strided{t.buffer()->data().data() + t.offset() + j * t.strides()[1],
                 t.strides()[0]};
}

// The one functional-validation harness: a functional world with the
// consistency checker on, `plan` injected and `trace` attached (before
// `build` constructs the op: its constructor captures per-rank trace pids
// into its signals and streams). `build(world)` returns the op with its
// inputs filled; after the run, the report takes the makespan, the
// checker's and the fault plan's tallies, and `bit_exact(op)`.
template <typename BuildFn, typename CheckFn>
PayloadReport RunFunctional(const sim::MachineSpec& spec,
                            const sim::FaultPlan* plan,
                            sim::TraceRecorder* trace, int trace_pid_base,
                            const char* trace_label, const BuildFn& build,
                            const CheckFn& bit_exact) {
  rt::World world(spec, rt::ExecMode::kFunctional);
  world.checker().set_enabled(true);
  world.set_fault_plan(plan);
  if (trace != nullptr) world.set_trace(trace, trace_pid_base, trace_label);
  const auto op = build(world);
  PayloadReport report;
  report.makespan = world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await op->Run(ctx); });
  report.violations = world.checker().violations().size();
  report.faults = world.fault_stats();
  report.checker_live =
      world.checker().live_writes() + world.checker().live_reads();
  report.checker_retired = world.checker().retired_intervals();
  report.checker_audits = world.checker().audit_calls();
  report.checker_visited = world.checker().intervals_visited();
  report.bit_exact = bit_exact(*op);
  return report;
}

// The collectives on the harness: Collective is any of the three
// payload-capable classes, `expect` produces rank r's reference output and
// `layout` is the collective's optional RingLayout argument.
template <typename Collective, typename ExpectFn, typename... Layout>
PayloadReport RunValidation(const sim::MachineSpec& spec, int64_t num_tiles,
                            uint64_t tile_bytes, int64_t tile_elems,
                            const HierConfig& cfg, int64_t in_elems,
                            int64_t out_elems, const sim::FaultPlan* plan,
                            sim::TraceRecorder* trace, int trace_pid_base,
                            const char* trace_label, const ExpectFn& expect,
                            Layout... layout) {
  std::vector<rt::Buffer*> in, out;
  return RunFunctional(
      spec, plan, trace, trace_pid_base, trace_label,
      [&](rt::World& world) {
        in = AllocFilled(world, "payload.in", in_elems, /*fill=*/true);
        out = AllocFilled(world, "payload.out", out_elems, /*fill=*/false);
        auto coll = std::make_unique<Collective>(world, num_tiles, tile_bytes,
                                                 cfg, layout...);
        coll->AttachPayload(in, out, tile_elems);
        return coll;
      },
      [&](const Collective&) {
        bool exact = true;
        for (int r = 0; r < spec.num_devices; ++r) {
          if (!BufferMatches(out[static_cast<size_t>(r)], expect(in, r))) {
            exact = false;
          }
        }
        return exact;
      });
}

// Integer-lattice inputs for the fused kernels' A and B operands: values in
// [-8, 8] vary per position (a narrower range degenerates to constant
// tensors under the Knuth hash and would make bit-exactness vacuous), and
// every partial and cross-rank sum stays an exact fp32 integer, so the
// reference comparison is exact, not approximate.
void FillOperands(comm::SymTensor& a, comm::SymTensor& b) {
  for (std::size_t r = 0; r < a.size(); ++r) {
    const uint32_t rank = static_cast<uint32_t>(r);
    FillIntLattice(a[r], /*seed=*/rank * 7919u + 1u);
    FillIntLattice(b[r], /*seed=*/rank * 104729u + 3u);
  }
}

}  // namespace

PayloadReport ValidateHierAllGather(const sim::MachineSpec& spec,
                                    int64_t num_tiles, uint64_t tile_bytes,
                                    int64_t tile_elems,
                                    const HierConfig& cfg,
                                    const sim::FaultPlan* plan,
                                    sim::TraceRecorder* trace,
                                    int trace_pid_base) {
  return RunValidation<HierAllGather>(
      spec, num_tiles, tile_bytes, tile_elems, cfg, num_tiles * tile_elems,
      spec.num_devices * num_tiles * tile_elems, plan, trace, trace_pid_base,
      "hier_ag",
      [](const std::vector<rt::Buffer*>& in, int) {
        return RefAllGather(in);
      });
}

PayloadReport ValidateFlatAllGather(const sim::MachineSpec& spec,
                                    int64_t num_tiles, uint64_t tile_bytes,
                                    int64_t tile_elems,
                                    const HierConfig& cfg,
                                    const sim::FaultPlan* plan,
                                    sim::TraceRecorder* trace,
                                    int trace_pid_base) {
  return RunValidation<HierAllGather>(
      spec, num_tiles, tile_bytes, tile_elems, cfg, num_tiles * tile_elems,
      spec.num_devices * num_tiles * tile_elems, plan, trace, trace_pid_base,
      "flat_ag",
      [](const std::vector<rt::Buffer*>& in, int) {
        return RefAllGather(in);
      },
      RingLayout::kOneRing);
}

PayloadReport ValidateHierReduceScatter(const sim::MachineSpec& spec,
                                        int64_t num_tiles,
                                        uint64_t tile_bytes,
                                        int64_t tile_elems,
                                        const HierConfig& cfg,
                                        const sim::FaultPlan* plan,
                                        sim::TraceRecorder* trace,
                                        int trace_pid_base) {
  return RunValidation<HierReduceScatter>(
      spec, num_tiles, tile_bytes, tile_elems, cfg,
      spec.num_devices * num_tiles * tile_elems, num_tiles * tile_elems,
      plan, trace, trace_pid_base, "hier_rs",
      [&](const std::vector<rt::Buffer*>& in, int r) {
        return RefReduceScatter(in, r, num_tiles * tile_elems);
      });
}

PayloadReport ValidateFlatReduceScatter(const sim::MachineSpec& spec,
                                        int64_t num_tiles,
                                        uint64_t tile_bytes,
                                        int64_t tile_elems,
                                        const HierConfig& cfg,
                                        const sim::FaultPlan* plan,
                                        sim::TraceRecorder* trace,
                                        int trace_pid_base) {
  return RunValidation<HierReduceScatter>(
      spec, num_tiles, tile_bytes, tile_elems, cfg,
      spec.num_devices * num_tiles * tile_elems, num_tiles * tile_elems,
      plan, trace, trace_pid_base, "flat_rs",
      [&](const std::vector<rt::Buffer*>& in, int r) {
        return RefReduceScatter(in, r, num_tiles * tile_elems);
      },
      RingLayout::kOneRing);
}

PayloadReport ValidateDpAllReduce(const sim::MachineSpec& spec,
                                  int64_t num_tiles, uint64_t tile_bytes,
                                  int64_t tile_elems, const HierConfig& cfg,
                                  const sim::FaultPlan* plan,
                                  sim::TraceRecorder* trace,
                                  int trace_pid_base) {
  return RunValidation<DpAllReduce>(
      spec, num_tiles, tile_bytes, tile_elems, cfg, num_tiles * tile_elems,
      num_tiles * tile_elems, plan, trace, trace_pid_base, "dp_ar",
      [&](const std::vector<rt::Buffer*>& in, int r) {
        return RefDpAllReduce(in, spec.devices_per_node, r);
      });
}

PayloadReport ValidateGemmHierRs(const sim::MachineSpec& spec,
                                 const tl::GemmRsConfig& cfg,
                                 const sim::FaultPlan* plan,
                                 sim::TraceRecorder* trace,
                                 int trace_pid_base) {
  const int R = spec.num_devices;
  return RunFunctional(
      spec, plan, trace, trace_pid_base, "gemm_hier_rs",
      [&](rt::World& world) {
        auto kernel = std::make_unique<tl::GemmRs>(world, cfg);
        FillOperands(kernel->a(), kernel->b());
        return kernel;
      },
      [&](tl::GemmRs& kernel) {
        // Single-rank reference: out[r] = sum_p (A_p @ B_p) rows of block
        // r (|partial| <= 64 * k, far below 2^24).
        const int64_t m_per_rank = cfg.m / R;
        for (int r = 0; r < R; ++r) {
          const Tensor& out = kernel.out()[static_cast<size_t>(r)];
          for (int64_t i = 0; i < m_per_rank; ++i) {
            const int64_t row = r * m_per_rank + i;
            const Strided out_row = Row(out, i);
            for (int64_t j = 0; j < cfg.n; ++j) {
              double ref = 0.0;
              for (int p = 0; p < R; ++p) {
                const Strided a = Row(kernel.a()[static_cast<size_t>(p)], row);
                const Strided b = Col(kernel.b()[static_cast<size_t>(p)], j);
                for (int64_t kk = 0; kk < cfg.k; ++kk) {
                  ref += static_cast<double>(a[kk]) *
                         static_cast<double>(b[kk]);
                }
              }
              if (out_row[j] != static_cast<float>(ref)) return false;
            }
          }
        }
        return true;
      });
}

PayloadReport ValidateAgGemmHier(const sim::MachineSpec& spec,
                                 const tl::AgGemmHierConfig& cfg,
                                 const sim::FaultPlan* plan,
                                 sim::TraceRecorder* trace,
                                 int trace_pid_base) {
  const int R = spec.num_devices;
  return RunFunctional(
      spec, plan, trace, trace_pid_base, "ag_gemm_hier",
      [&](rt::World& world) {
        auto kernel = std::make_unique<tl::AgGemmHier>(world, cfg);
        FillOperands(kernel->a_shards(), kernel->b());
        return kernel;
      },
      [&](tl::AgGemmHier& kernel) {
        // Single-rank reference: c[r] = gathered-A @ B_r — row
        // p * m_per_rank + i comes from shard p.
        const int64_t m_per_rank = cfg.m / R;
        for (int r = 0; r < R; ++r) {
          const Tensor& c = kernel.c()[static_cast<size_t>(r)];
          const Tensor& b = kernel.b()[static_cast<size_t>(r)];
          for (int p = 0; p < R; ++p) {
            const Tensor& a = kernel.a_shards()[static_cast<size_t>(p)];
            for (int64_t i = 0; i < m_per_rank; ++i) {
              const Strided a_row = Row(a, i);
              const Strided c_row = Row(c, p * m_per_rank + i);
              for (int64_t j = 0; j < cfg.n; ++j) {
                const Strided b_col = Col(b, j);
                double ref = 0.0;
                for (int64_t kk = 0; kk < cfg.k; ++kk) {
                  ref += static_cast<double>(a_row[kk]) *
                         static_cast<double>(b_col[kk]);
                }
                if (c_row[j] != static_cast<float>(ref)) return false;
              }
            }
          }
        }
        return true;
      });
}

}  // namespace tilelink::multinode
