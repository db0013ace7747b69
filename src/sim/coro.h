// Coroutine task type for the discrete-event simulator.
//
// Every simulated activity (a GPU thread block, a host thread, a DMA engine
// program, a collective step) is written as a `Coro`-returning coroutine.
// Awaitables (Delay, Resource::Acquire, Flag::WaitGe, Network transfers)
// carry a `Bind(Simulator*)` hook; the promise's await_transform injects the
// simulator so user code never threads it manually. Child coroutines are
// awaited with plain `co_await Child(...)` and run at the same simulated
// time via symmetric transfer.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>

#include "common/check.h"
#include "sim/time.h"

// Coroutine frame pooling is a no-op under AddressSanitizer so freed frames
// stay poisoned and use-after-free on a frame is still caught.
#if defined(__SANITIZE_ADDRESS__)
#define TILELINK_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TILELINK_FRAME_POOL_DISABLED 1
#endif
#endif

namespace tilelink::sim {

class Simulator;

// Size-bucketed pool for coroutine frames (defined in simulator.cc; no-op
// pass-through to the global allocator under ASan). Simulated programs spawn
// millions of short-lived activity frames of a handful of distinct sizes, so
// recycling them removes the allocator from the event-loop hot path. Each
// thread keeps its own free lists and returns them to the global allocator
// when it exits; a frame freed on a thread whose pool is already gone goes
// straight back to the global allocator.
void* FramePoolAlloc(std::size_t size);
void FramePoolFree(void* ptr, std::size_t size) noexcept;
// Bytes the pool has taken from the global allocator and not yet returned,
// over all threads: frames in use plus free-listed ones.
std::size_t FramePoolBytes();

template <typename A>
concept BindableAwaitable = requires(A a, Simulator* s) { a.Bind(s); };

class [[nodiscard]] Coro {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Simulator* sim = nullptr;
    std::coroutine_handle<> continuation;  // resumed when this coro finishes
    std::exception_ptr error;
    bool owned_by_sim = false;  // root coroutine: simulator destroys it
    // Root coroutines: index in the simulator's live-root list (fits in the
    // padding after owned_by_sim, so frames do not grow).
    uint32_t root_slot = 0;

    // Route frame allocation through the size-bucketed pool.
    static void* operator new(std::size_t size) {
      return FramePoolAlloc(size);
    }
    static void operator delete(void* ptr, std::size_t size) noexcept {
      FramePoolFree(ptr, size);
    }

    Coro get_return_object() { return Coro(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }

    // Injects the simulator into awaitables that want it.
    template <typename A>
    decltype(auto) await_transform(A&& a) {
      if constexpr (BindableAwaitable<std::remove_reference_t<A>>) {
        a.Bind(sim);
      }
      return std::forward<A>(a);
    }

    // Awaiting a child coroutine: start it immediately (same sim time) and
    // resume the parent when it completes.
    auto await_transform(Coro&& child) {
      struct ChildAwaiter {
        Coro child;  // keeps the child frame alive across the await
        bool await_ready() const noexcept { return false; }
        std::coroutine_handle<> await_suspend(Handle parent) noexcept {
          child.handle_.promise().sim = parent.promise().sim;
          child.handle_.promise().continuation = parent;
          return child.handle_;  // symmetric transfer into the child
        }
        void await_resume() {
          if (child.handle_.promise().error) {
            std::rethrow_exception(child.handle_.promise().error);
          }
        }
      };
      return ChildAwaiter{std::move(child)};
    }
  };

  Coro() = default;
  explicit Coro(Handle h) : handle_(h) {}
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  // Transfers frame ownership to the caller (used by Simulator::Spawn).
  Handle Release() { return std::exchange(handle_, {}); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

// Suspends the current coroutine for `times` back-to-back delays of `ns`
// simulated nanoseconds each (one by default; `times` must be >= 1). A delay
// of zero still yields through the event queue (it acts as a scheduling
// point), and a negative one counts as zero.
//
// Repeated delays are exact: each of the `times` delays counts as its own
// event and draws its sequence number when the previous one ends, just as
// `times` separate `Delay{ns}` awaits would, so event order and
// Simulator::processed_events() do not change. Only the wake-ups do: for
// times > 1 the simulator re-queues the repeats itself (a repeat event whose
// payload is this awaiter, which lives in the suspended frame) and resumes
// the coroutine once, after the last delay. Repeats of lockstep waiters
// (same time, step and remaining count, back to back in the queue) travel
// as one queued wave until their last delay; see "Repeat waves" in
// simulator.h. The simulator counts `times` down while the coroutine waits,
// so awaiting consumes a repeated Delay: await a fresh one each time
// (`co_await Delay{ns, n}`), never the same named object twice.
struct Delay {
  explicit Delay(TimeNs ns, int64_t times = 1) : ns(ns), times(times) {}

  TimeNs ns;
  int64_t times;  // delays still to elapse while suspended
  // The simulator until the await suspends; then, for a repeated delay, the
  // suspended coroutine's frame (the simulator popping the repeat event
  // needs no pointer to itself). One slot keeps the awaiter, which every
  // suspended frame holds, at 24 bytes.
  union {
    Simulator* sim = nullptr;
    void* waiter;
  };

  TimeNs step() const noexcept { return ns < 0 ? 0 : ns; }
  void Bind(Simulator* s) { sim = s; }
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

}  // namespace tilelink::sim
