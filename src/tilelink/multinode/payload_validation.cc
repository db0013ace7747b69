#include "tilelink/multinode/payload_validation.h"

#include <algorithm>
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

bool BufferMatches(rt::Buffer* buf, const std::vector<float>& ref) {
  const int64_t n = static_cast<int64_t>(ref.size());
  if (buf->num_elems() != n) return false;
  rt::Buffer ref_buf(buf->device(), "ref", n, /*materialize=*/true);
  std::copy(ref.begin(), ref.end(), ref_buf.data().begin());
  return BitExact(Tensor(buf, {n}, DType::kFP32),
                  Tensor(&ref_buf, {n}, DType::kFP32));
}

// Shared driver: Collective is any of the three payload-capable classes,
// `expect` produces rank r's reference output and `layout` is the
// collective's optional RingLayout argument.
template <typename Collective, typename ExpectFn, typename... Layout>
PayloadReport RunValidation(const sim::MachineSpec& spec, int64_t num_tiles,
                            uint64_t tile_bytes, int64_t tile_elems,
                            const HierConfig& cfg, int64_t in_elems,
                            int64_t out_elems, const sim::FaultPlan* plan,
                            sim::TraceRecorder* trace, int trace_pid_base,
                            const char* trace_label, const ExpectFn& expect,
                            Layout... layout) {
  rt::World world(spec, rt::ExecMode::kFunctional);
  world.checker().set_enabled(true);
  world.set_fault_plan(plan);
  // Attach the recorder before constructing the collective: the ctor
  // captures per-rank trace pids into its signals and streams.
  if (trace != nullptr) world.set_trace(trace, trace_pid_base, trace_label);
  std::vector<rt::Buffer*> in =
      AllocFilled(world, "payload.in", in_elems, /*fill=*/true);
  std::vector<rt::Buffer*> out =
      AllocFilled(world, "payload.out", out_elems, /*fill=*/false);
  Collective coll(world, num_tiles, tile_bytes, cfg, layout...);
  coll.AttachPayload(in, out, tile_elems);
  PayloadReport report;
  report.makespan = world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await coll.Run(ctx); });
  report.violations = world.checker().violations().size();
  report.faults = world.fault_stats();
  report.checker_live =
      world.checker().live_writes() + world.checker().live_reads();
  report.checker_retired = world.checker().retired_intervals();
  report.bit_exact = true;
  for (int r = 0; r < world.size(); ++r) {
    if (!BufferMatches(out[static_cast<size_t>(r)], expect(in, r))) {
      report.bit_exact = false;
    }
  }
  return report;
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
                                 const tl::GemmHierRsConfig& cfg,
                                 const sim::FaultPlan* plan,
                                 sim::TraceRecorder* trace,
                                 int trace_pid_base) {
  rt::World world(spec, rt::ExecMode::kFunctional);
  world.checker().set_enabled(true);
  world.set_fault_plan(plan);
  if (trace != nullptr) world.set_trace(trace, trace_pid_base, "gemm_hier_rs");
  tl::GemmHierRs kernel(world, cfg);
  const int R = spec.num_devices;
  for (int r = 0; r < R; ++r) {
    // Default lattice range: values in [-8, 8] vary per position (a
    // narrower range degenerates to constant tensors under the Knuth hash
    // and would make bit-exactness vacuous). Exactness bound: |partial| <=
    // 64 * k and the cross-rank sum stays far below 2^24.
    FillIntLattice(kernel.a()[static_cast<size_t>(r)],
                   /*seed=*/static_cast<uint32_t>(r) * 7919u + 1u);
    FillIntLattice(kernel.b()[static_cast<size_t>(r)],
                   /*seed=*/static_cast<uint32_t>(r) * 104729u + 3u);
  }
  PayloadReport report;
  report.makespan = world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  report.violations = world.checker().violations().size();
  report.faults = world.fault_stats();
  report.checker_live =
      world.checker().live_writes() + world.checker().live_reads();
  report.checker_retired = world.checker().retired_intervals();
  // Single-rank reference: out[r] = sum_p (A_p @ B_p) rows of block r.
  // Integer-lattice inputs keep every partial and cross-rank sum an exact
  // fp32 integer, so equality is exact, not approximate.
  const int64_t m_per_rank = cfg.m / R;
  report.bit_exact = true;
  for (int r = 0; r < R && report.bit_exact; ++r) {
    Tensor out = kernel.out()[static_cast<size_t>(r)];
    for (int64_t i = 0; i < m_per_rank && report.bit_exact; ++i) {
      const int64_t row = r * m_per_rank + i;
      for (int64_t j = 0; j < cfg.n; ++j) {
        double ref = 0.0;
        for (int p = 0; p < R; ++p) {
          Tensor& a = kernel.a()[static_cast<size_t>(p)];
          Tensor& b = kernel.b()[static_cast<size_t>(p)];
          for (int64_t kk = 0; kk < cfg.k; ++kk) {
            ref += static_cast<double>(a.at({row, kk})) *
                   static_cast<double>(b.at({kk, j}));
          }
        }
        if (out.at({i, j}) != static_cast<float>(ref)) {
          report.bit_exact = false;
          break;
        }
      }
    }
  }
  return report;
}

PayloadReport ValidateAgGemmHier(const sim::MachineSpec& spec,
                                 const tl::AgGemmHierConfig& cfg,
                                 const sim::FaultPlan* plan,
                                 sim::TraceRecorder* trace,
                                 int trace_pid_base) {
  rt::World world(spec, rt::ExecMode::kFunctional);
  world.checker().set_enabled(true);
  world.set_fault_plan(plan);
  if (trace != nullptr) world.set_trace(trace, trace_pid_base, "ag_gemm_hier");
  tl::AgGemmHier kernel(world, cfg);
  const int R = spec.num_devices;
  for (int r = 0; r < R; ++r) {
    FillIntLattice(kernel.a_shards()[static_cast<size_t>(r)],
                   /*seed=*/static_cast<uint32_t>(r) * 7919u + 1u);
    FillIntLattice(kernel.b()[static_cast<size_t>(r)],
                   /*seed=*/static_cast<uint32_t>(r) * 104729u + 3u);
  }
  PayloadReport report;
  report.makespan = world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  report.violations = world.checker().violations().size();
  report.faults = world.fault_stats();
  report.checker_live =
      world.checker().live_writes() + world.checker().live_reads();
  report.checker_retired = world.checker().retired_intervals();
  // Single-rank reference: c[r] = gathered-A @ B_r — row p * m_per_rank + i
  // comes from shard p. Integer-lattice inputs keep every dot product an
  // exact fp32 integer, so equality is exact, not approximate.
  const int64_t m_per_rank = cfg.m / R;
  report.bit_exact = true;
  for (int r = 0; r < R && report.bit_exact; ++r) {
    Tensor c = kernel.c()[static_cast<size_t>(r)];
    Tensor& b = kernel.b()[static_cast<size_t>(r)];
    for (int p = 0; p < R && report.bit_exact; ++p) {
      Tensor& a = kernel.a_shards()[static_cast<size_t>(p)];
      for (int64_t i = 0; i < m_per_rank && report.bit_exact; ++i) {
        const int64_t row = p * m_per_rank + i;
        for (int64_t j = 0; j < cfg.n; ++j) {
          double ref = 0.0;
          for (int64_t kk = 0; kk < cfg.k; ++kk) {
            ref += static_cast<double>(a.at({i, kk})) *
                   static_cast<double>(b.at({kk, j}));
          }
          if (c.at({row, j}) != static_cast<float>(ref)) {
            report.bit_exact = false;
            break;
          }
        }
      }
    }
  }
  return report;
}

}  // namespace tilelink::multinode
