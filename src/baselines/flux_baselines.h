// FLUX-analog baselines (paper §2.2, §7): kernel fusion with a *tightly
// coupled* design space. FLUX fuses communication into the GEMM kernel
// itself — the comm tile size equals the GEMM tile size and communication
// shares the GEMM's SMs:
//  - AG+GEMM: every GEMM block pulls its own input tile inline before the
//    mainloop (cp.async-style). Highly effective — transfers of one block
//    overlap compute of others with zero DMA/host overhead, which is why
//    FLUX wins AG+GEMM in the paper (TileLink reaches ~94.5%).
//  - GEMM+RS: every GEMM block pushes its output tile to the owner rank
//    inline after the mainloop and the owner reduces. The coupled tile size
//    and SM-held transfers serialize the scatter behind compute, which is
//    why FLUX loses to TileLink's hybrid DMA mapping there.
// Both enumerate tiles in FLUX's swizzled order, each rank's own rows
// first, so at every step the ranks' pulls and pushes reach different
// peers. Both are built from TileLink's own primitives: FLUX is
// expressible as a specific (coupled) point of the design space (§3.1).
#pragma once

#include "comm/collectives.h"
#include "compute/gemm.h"
#include "runtime/world.h"
#include "tilelink/block_channel.h"
#include "tilelink/program.h"

namespace tilelink::baselines {

struct FluxConfig {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  compute::GemmTiling gemm{128, 256, 64};
};

class FluxAgGemm {
 public:
  FluxAgGemm(rt::World& world, const FluxConfig& config);
  comm::SymTensor& a_shards() { return a_shards_; }
  comm::SymTensor& b() { return b_; }
  comm::SymTensor& c() { return c_; }
  sim::Coro Run(rt::RankCtx& ctx);

 private:
  rt::World* world_;
  FluxConfig cfg_;
  comm::SymTensor a_shards_, a_full_, b_, c_;
  std::vector<tl::BlockChannel> bcs_;
  tl::CompiledKernel compiled_;
};

class FluxGemmRs {
 public:
  FluxGemmRs(rt::World& world, const FluxConfig& config);
  comm::SymTensor& a() { return a_; }
  comm::SymTensor& b() { return b_; }
  comm::SymTensor& out() { return out_; }
  sim::Coro Run(rt::RankCtx& ctx);

 private:
  rt::World* world_;
  FluxConfig cfg_;
  comm::SymTensor a_, b_, staging_, out_;
  std::vector<tl::BlockChannel> bcs_;
  tl::CompiledKernel compiled_;
};

}  // namespace tilelink::baselines
