#include "sim/simulator.h"

#include <array>
#include <cstdlib>
#include <sstream>

#include "common/log.h"
#include "sim/trace.h"

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

#ifndef TILELINK_FRAME_POOL_DISABLED
namespace {

// Size-bucketed free lists for coroutine frames (64-byte granularity, frames
// up to 2 KiB pooled; larger ones fall through to the global allocator).
// Pooled memory is retained for the thread's lifetime — the simulator spawns
// millions of short-lived activity frames of only a handful of distinct
// sizes, so steady state allocates nothing.
constexpr std::size_t kFrameGranularity = 64;
constexpr std::size_t kFrameBuckets = 32;

struct FreeFrame {
  FreeFrame* next;
};

thread_local std::array<FreeFrame*, kFrameBuckets> g_frame_pool = {};

inline std::size_t BucketOf(std::size_t size) {
  return (size + kFrameGranularity - 1) / kFrameGranularity;
}

}  // namespace
#endif  // TILELINK_FRAME_POOL_DISABLED

void* FramePoolAlloc(std::size_t size) {
#ifndef TILELINK_FRAME_POOL_DISABLED
  const std::size_t bucket = BucketOf(size);
  if (bucket < kFrameBuckets) {
    if (FreeFrame* frame = g_frame_pool[bucket]; frame != nullptr) {
      g_frame_pool[bucket] = frame->next;
      return frame;
    }
    return ::operator new(bucket * kFrameGranularity);
  }
#endif
  return ::operator new(size);
}

void FramePoolFree(void* ptr, std::size_t size) noexcept {
#ifndef TILELINK_FRAME_POOL_DISABLED
  const std::size_t bucket = BucketOf(size);
  if (bucket < kFrameBuckets) {
    auto* frame = static_cast<FreeFrame*>(ptr);
    frame->next = g_frame_pool[bucket];
    g_frame_pool[bucket] = frame;
    return;
  }
#endif
  ::operator delete(ptr);
}

std::coroutine_handle<> Coro::promise_type::FinalAwaiter::await_suspend(
    Coro::Handle h) noexcept {
  promise_type& p = h.promise();
  if (p.continuation) {
    return p.continuation;  // resume the awaiting parent at the same time
  }
  if (p.owned_by_sim && p.sim != nullptr) {
    p.sim->NotifyRootDone(h);  // simulator destroys the frame safely later
  }
  return std::noop_coroutine();
}

Simulator::Simulator() = default;

Simulator::~Simulator() {
  DestroyFinishedRoots();
  // Roots still suspended at teardown (e.g. after a DeadlockError) would
  // otherwise leak their frames: destroy them explicitly. Frame destruction
  // only runs local destructors — nothing is resumed.
  for (void* frame : live_root_frames_) {
    Coro::Handle::from_address(frame).destroy();
  }
  // Callables still queued at teardown own captures: destroy without running.
  for (const Event& entry : heap_) {
    if (entry.run == kNoRun) {
      DestroyEvent(entry);
      continue;
    }
    const EventRun& run = runs_[entry.run];
    for (std::size_t i = run.head; i < run.events.size(); ++i) {
      DestroyEvent(run.events[i]);
    }
  }
}

void Simulator::DestroyEvent(const Event& ev) {
  if (ev.callback) {
    auto* node = static_cast<CallbackNode*>(ev.payload);
    node->invoke(node, /*run=*/false);
  }
}

void Simulator::Push(const Event& ev) {
  // Fibonacci hash: nearby tile-cost times spread over the slots.
  OpenTime& slot = open_times_[(static_cast<uint64_t>(ev.t) *
                                0x9E3779B97F4A7C15ull) >>
                               (64 - kOpenTimeBits)];
  if (slot.t != ev.t) {
    // First push of this time (or its slot was taken): a lone heap entry.
    slot = OpenTime{ev.t, kNoRun};
    HeapPush(ev);
    return;
  }
  if (slot.run != kNoRun && runs_[slot.run].t == ev.t) {
    EventRun& run = runs_[slot.run];
    if (run.events.back().seq < ev.seq) {
      run.events.push_back(ev);
      return;
    }
    // A reserved sequence ordering before the run's tail: its own entry.
    HeapPush(ev);
    return;
  }
  slot.run = OpenRun(ev);
}

uint32_t Simulator::OpenRun(const Event& ev) {
  uint32_t id;
  if (!free_runs_.empty()) {
    id = free_runs_.back();
    free_runs_.pop_back();
  } else {
    id = static_cast<uint32_t>(runs_.size());
    runs_.emplace_back();
  }
  EventRun& run = runs_[id];
  run.t = ev.t;
  run.events.push_back(ev);
  Event head = ev;
  head.run = id;
  HeapPush(head);
  return id;
}

Simulator::Event Simulator::PopMin() {
  const Event top = heap_.front();
  if (top.run != kNoRun) {
    EventRun& run = runs_[top.run];
    if (++run.head < run.events.size()) {
      // Drop the consumed prefix once it is the larger half, so a run fed
      // by same-time pushes while it drains stays bounded.
      if (run.head >= 64 && 2 * run.head >= run.events.size()) {
        run.events.erase(run.events.begin(), run.events.begin() + run.head);
        run.head = 0;
      }
      Event next = run.events[run.head];
      next.run = top.run;
      SiftDown(0, next);
      return top;
    }
    run.t = kNoTime;
    run.head = 0;
    run.events.clear();
    free_runs_.push_back(top.run);
  }
  const Event last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
  return top;
}

void Simulator::HeapPush(const Event& ev) {
  std::size_t hole = heap_.size();
  heap_.push_back(ev);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!Before(ev, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ev;
}

void Simulator::SiftDown(std::size_t hole, const Event& ev) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], ev)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = ev;
}

void Simulator::Spawn(Coro coro, std::string name) {
  TL_CHECK(coro.valid());
  Coro::Handle h = coro.Release();
  h.promise().sim = this;
  h.promise().owned_by_sim = true;
  ++live_roots_;
  live_root_frames_.insert(h.address());
  ScheduleResume(now_, h);
  if (trace_ != nullptr && !name.empty()) {
    open_root_spans_.emplace(h.address(), OpenRootSpan{std::move(name), now_});
  }
}

void Simulator::ScheduleResume(TimeNs t, std::coroutine_handle<> h) {
  TL_CHECK_GE(t, now_);
  Push(Event{t, next_seq_++, h.address(), kNoRun, /*callback=*/false});
}

void Simulator::NotifyRootDone(Coro::Handle h) {
  --live_roots_;
  live_root_frames_.erase(h.address());
  finished_roots_.push_back(h);
  if (trace_ != nullptr && !open_root_spans_.empty()) {
    auto it = open_root_spans_.find(h.address());
    if (it != open_root_spans_.end()) {
      trace_->AddSpan(trace_pid_, trace_->Track(trace_pid_, it->second.name),
                      it->second.name, it->second.start, now_, kCatTask);
      open_root_spans_.erase(it);
    }
  }
}

void Simulator::DestroyFinishedRoots() {
  // Pop before destroying: rethrowing a root's error must not leave the
  // already-destroyed handle in the list, or the destructor (and the next
  // Run) would touch a freed frame.
  while (!finished_roots_.empty()) {
    Coro::Handle h = finished_roots_.front();
    finished_roots_.erase(finished_roots_.begin());
    std::exception_ptr err = h.promise().error;
    h.destroy();
    if (err) std::rethrow_exception(err);
  }
}

void Simulator::Run() {
  const TimeNs run_start = now_;
  const uint64_t events_before = processed_events_;
  while (!heap_.empty()) {
    const Event ev = PopMin();
    TL_CHECK_GE(ev.t, now_);
    now_ = ev.t;
    current_seq_ = ev.seq;
    ++processed_events_;
    if (!ev.callback) {
      std::coroutine_handle<>::from_address(ev.payload).resume();
    } else {
      auto* node = static_cast<CallbackNode*>(ev.payload);
      node->invoke(node, /*run=*/true);
      FreeCallbackNode(node);
    }
    DestroyFinishedRoots();  // rethrows root errors promptly
  }
  if (live_roots_ > 0) {
    std::ostringstream os;
    os << "deadlock: event queue empty at t=" << now_ << "ns with "
       << live_roots_ << " live activities; blocked on:";
    for (const auto& [key, info] : blocked_) {
      os << "\n  - " << info.describe(info.ctx);
    }
    throw DeadlockError(os.str(), now_);
  }
  if (trace_ != nullptr) {
    trace_->AddSpan(
        trace_pid_, trace_->Track(trace_pid_, "event-loop"), "run", run_start,
        now_, kCatTask,
        {TraceArg::Num("events",
                       static_cast<double>(processed_events_ - events_before)),
         TraceArg::Str("result", "drained")});
  }
}

void Simulator::RegisterBlockedDynamic(const void* key, const void* ctx,
                                       std::string (*describe)(const void*)) {
  blocked_[key] = BlockedInfo{describe, ctx};
}

void Simulator::UnregisterBlocked(const void* key) { blocked_.erase(key); }

void Delay::await_suspend(std::coroutine_handle<> h) {
  TL_CHECK_MSG(sim != nullptr, "Delay awaited outside a simulator coroutine");
  sim->ScheduleResume(sim->Now() + (ns < 0 ? 0 : ns), h);
}

}  // namespace tilelink::sim
