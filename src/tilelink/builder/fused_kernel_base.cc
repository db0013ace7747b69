#include "tilelink/builder/fused_kernel_base.h"

#include "sim/coro_utils.h"

namespace tilelink::tl {

int64_t TilesForBlock(int64_t total, const Env& env) {
  if (env.block_id >= total) return 0;
  return (total - env.block_id - 1) / env.grid + 1;
}

FusedKernelBase::FusedKernelBase(rt::World& world, std::string name)
    : world_(&world), name_(std::move(name)) {}

comm::SymTensor FusedKernelBase::AllocSymmetric(
    const std::string& suffix, const TensorDims& shape,
    DType dtype) const {
  comm::SymTensor tensors;
  tensors.reserve(static_cast<size_t>(ranks()));
  for (int r = 0; r < ranks(); ++r) {
    tensors.push_back(
        Tensor::Alloc(world_->device(r), name_ + "." + suffix, shape, dtype));
  }
  return tensors;
}

void FusedKernelBase::CreateChannels(int num_pc, int num_peer, int num_host) {
  bcs_ = BlockChannel::CreateSymmetric(*world_, name_, num_pc, num_peer,
                                       num_host);
}

void FusedKernelBase::Finalize(FusedKernelSpec spec) {
  compiled_ = Compiler().Compile(std::move(spec));
}

std::optional<sim::Coro> FusedKernelBase::HostComm(rt::RankCtx&) {
  return std::nullopt;
}

sim::Coro FusedKernelBase::AwaitKernel(
    std::shared_ptr<rt::KernelState> state) {
  co_await state->Wait();
}

sim::Coro FusedKernelBase::Run(rt::RankCtx& ctx) {
  co_await world_->barrier().Arrive();
  std::optional<sim::Coro> host = HostComm(ctx);
  if (!LaunchesDevice()) {
    if (host) co_await std::move(*host);
    co_return;
  }
  auto state =
      compiled_.Launch(ctx, *ctx.stream, bcs_[static_cast<size_t>(ctx.rank)]);
  if (!host) {
    co_await AwaitKernel(std::move(state));
    co_return;
  }
  std::vector<sim::Coro> work;
  work.push_back(std::move(*host));
  work.push_back(AwaitKernel(std::move(state)));
  co_await sim::WhenAll(std::move(work));
}

}  // namespace tilelink::tl
