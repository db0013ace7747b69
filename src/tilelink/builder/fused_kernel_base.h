// FusedKernelBase: shared scaffolding of every TileLink overlapped kernel.
//
// Each kernel in tilelink/kernels is one fused SPMD program: symmetric
// per-rank tensors, a set of barrier channels (BlockChannel), a compiled
// FusedKernelSpec, and a host Run() coroutine that launches the device
// kernel and (optionally) drives copy engines concurrently. Before this
// layer existed every kernel hand-rolled all four; the base class owns them
// so a kernel's .cc holds only its role programs — the part of the design
// space the paper actually varies (§3.1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "runtime/world.h"
#include "tensor/tensor.h"
#include "tilelink/block_channel.h"
#include "tilelink/program.h"

namespace tilelink::tl {

// Number of tiles a block processes when `total` tiles are dealt
// round-robin over the role's grid.
int64_t TilesForBlock(int64_t total, const Env& env);

class FusedKernelBase {
 public:
  virtual ~FusedKernelBase() = default;
  FusedKernelBase(const FusedKernelBase&) = delete;
  FusedKernelBase& operator=(const FusedKernelBase&) = delete;

  const std::string& name() const { return name_; }
  const std::string& listing() const { return compiled_.listing(); }
  const FusedKernelSpec& spec() const { return compiled_.spec(); }

  // SPMD body: call once per rank inside World::RunSpmd. Arrives at the
  // world barrier, launches the fused kernel (unless LaunchesDevice() is
  // false), runs HostComm() concurrently, and awaits both.
  sim::Coro Run(rt::RankCtx& ctx);

 protected:
  FusedKernelBase(rt::World& world, std::string name);

  rt::World& world() const { return *world_; }
  int ranks() const { return world_->size(); }

  // One identically-shaped tensor per rank, named "<kernel>.<suffix>".
  comm::SymTensor AllocSymmetric(const std::string& suffix,
                                 const TensorDims& shape,
                                 DType dtype = DType::kBF16) const;

  // Allocates the symmetric signal storage for the three signal spaces.
  void CreateChannels(int num_pc, int num_peer, int num_host);
  const BlockChannel& channel(int rank) const {
    return bcs_.at(static_cast<size_t>(rank));
  }

  // Compiles the role plan into the launchable kernel. Must be called once,
  // at the end of the subclass constructor.
  void Finalize(FusedKernelSpec spec);

  // Hook: host-driven communication (copy-engine programs built from host
  // primitives) overlapped with the device kernel. Default: none.
  virtual std::optional<sim::Coro> HostComm(rt::RankCtx& ctx);
  // Hook: comm-only measurement variants skip the device launch.
  virtual bool LaunchesDevice() const { return true; }

  static sim::Coro AwaitKernel(std::shared_ptr<rt::KernelState> state);

 private:
  rt::World* world_;
  std::string name_;
  std::vector<BlockChannel> bcs_;
  CompiledKernel compiled_;
};

}  // namespace tilelink::tl
