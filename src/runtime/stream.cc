#include "runtime/stream.h"

namespace tilelink::rt {
namespace {

// Root coroutine for one thread block: queue for an SM slot, run the body,
// free the slot, tick the kernel's completion counter. `body` and the kernel
// state belong to the launch, which outlives every block it spawns.
sim::Coro BlockWrapper(BlockCtx ctx, const BlockFn& body) {
  co_await ctx.dev->sms().Acquire();
  try {
    co_await body(ctx);
  } catch (...) {
    ctx.dev->sms().Release();
    throw;
  }
  ctx.dev->sms().Release();
  ctx.kernel->blocks_done.Add(1);
  if (ctx.kernel->done()) {
    ctx.kernel->end_time = ctx.dev->sim()->Now();
  }
}

}  // namespace

void Stream::Enqueue(std::function<sim::Coro()> make_op) {
  const uint64_t index = enqueued_++;
  sim::Simulator* sim = dev_->sim();
  sim->Spawn(RunOp(index, std::move(make_op)),
             sim->trace() != nullptr ? name_ + ".op" : std::string());
}

sim::Coro Stream::RunOp(uint64_t index, std::function<sim::Coro()> make_op) {
  co_await tail_.WaitGe(index);
  co_await make_op();
  tail_.Set(index + 1);
}

std::shared_ptr<KernelState> Stream::LaunchKernel(int grid, BlockFn body,
                                                  std::string kernel_name) {
  TL_CHECK_GT(grid, 0);
  auto state =
      std::make_shared<KernelState>(dev_->sim(), grid, std::move(kernel_name));
  Device* dev = dev_;
  // The op's closure owns `body` and `state` until every block finished:
  // the op completes only after the last block ticks blocks_done.
  Enqueue([dev, grid, body = std::move(body), state]() -> sim::Coro {
    co_await sim::Delay{dev->spec().kernel_launch_latency};
    sim::Simulator* sim = dev->sim();
    state->start_time = sim->Now();
    const std::string block_name =
        sim->trace() != nullptr ? state->name + ".block" : std::string();
    for (int b = 0; b < grid; ++b) {
      sim->Spawn(BlockWrapper(BlockCtx{dev, b, grid, state.get()}, body),
                 block_name);
    }
    co_await state->Wait();
  });
  return state;
}

std::shared_ptr<StreamEvent> Stream::RecordEvent() {
  auto event = std::make_shared<StreamEvent>(dev_->sim());
  Enqueue([event]() -> sim::Coro {
    event->Record();
    co_return;
  });
  return event;
}

void Stream::WaitEvent(std::shared_ptr<StreamEvent> event) {
  Enqueue([event]() -> sim::Coro { co_await event->Wait(); });
}

sim::Coro Stream::Synchronize() {
  co_await tail_.WaitGe(enqueued_);
  co_await sim::Delay{dev_->spec().host_sync_latency};
}

}  // namespace tilelink::rt
