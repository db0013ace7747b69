// Streams, events and kernel launch on the simulated device.
//
// A Stream executes enqueued async ops strictly in order (a Flag counts
// completed ops; op i starts when the count reaches i). Kernel launch spawns
// one coroutine per thread block; blocks contend for the device's SM slots
// in block-id order, which reproduces the GPU work-distributor behaviour the
// paper's fused kernels rely on (comm blocks with low ids grab their SMs
// first, compute blocks fill the rest, excess blocks wait for a free SM).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "runtime/device.h"
#include "sim/coro.h"
#include "sim/flag.h"
#include "sim/simulator.h"

namespace tilelink::rt {

class Stream;

// Completion state of one launched kernel.
struct KernelState {
  KernelState(sim::Simulator* sim, int grid_dim, std::string kernel_name)
      : blocks_done(sim, kernel_name + ".blocks_done"), grid(grid_dim),
        name(std::move(kernel_name)) {}
  sim::Flag blocks_done;
  int grid;
  sim::TimeNs start_time = -1;
  sim::TimeNs end_time = -1;
  std::string name;

  sim::Flag::Awaiter Wait() { return blocks_done.WaitGe(grid); }
  bool done() const { return blocks_done.value() >= static_cast<uint64_t>(grid); }
};

// Per-block execution context handed to kernel body coroutines.
struct BlockCtx {
  Device* dev = nullptr;
  int block_id = 0;
  int grid = 0;
  KernelState* kernel = nullptr;

  bool functional() const { return dev->functional(); }
};

using BlockFn = std::function<sim::Coro(BlockCtx)>;

// A cross-stream synchronization event (cudaEvent analog).
class StreamEvent {
 public:
  explicit StreamEvent(sim::Simulator* sim) : flag_(sim, "stream_event") {}
  sim::Flag::Awaiter Wait() { return flag_.WaitGe(1); }
  void Record() { flag_.Set(1); }
  bool query() const { return flag_.value() >= 1; }

 private:
  sim::Flag flag_;
};

class Stream {
 public:
  Stream(Device* dev, std::string name)
      : dev_(dev), name_(std::move(name)),
        tail_(dev->sim(), name_ + ".tail") {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Device* device() const { return dev_; }
  const std::string& name() const { return name_; }

  // Enqueues an async op. `make_op` is invoked when the op actually starts
  // (all prior ops on this stream done).
  void Enqueue(std::function<sim::Coro()> make_op);

  // Launches a kernel of `grid` blocks on this stream; returns its state.
  // The launch occupies the stream until every block has finished, and
  // keeps `body` alive until then: each block calls it by reference, so a
  // block coroutine may refer to the body's captures.
  std::shared_ptr<KernelState> LaunchKernel(int grid, BlockFn body,
                                            std::string kernel_name);

  // Records an event that fires when all currently-enqueued ops complete.
  std::shared_ptr<StreamEvent> RecordEvent();

  // Makes subsequent ops on this stream wait for `event`.
  void WaitEvent(std::shared_ptr<StreamEvent> event);

  // Host-side synchronization: completes when all enqueued ops are done,
  // then charges the host-sync latency.
  sim::Coro Synchronize();

  uint64_t ops_enqueued() const { return enqueued_; }
  bool idle() const { return tail_.value() >= enqueued_; }

 private:
  sim::Coro RunOp(uint64_t index, std::function<sim::Coro()> make_op);

  Device* dev_;
  std::string name_;
  sim::Flag tail_;
  uint64_t enqueued_ = 0;
};

}  // namespace tilelink::rt
