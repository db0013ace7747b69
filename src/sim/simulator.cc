#include "sim/simulator.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <sstream>

#include "sim/trace.h"

namespace tilelink::sim {

#ifndef TILELINK_FRAME_POOL_DISABLED
namespace {

// Size-bucketed free lists for coroutine frames (64-byte granularity, frames
// up to 2 KiB pooled; larger ones fall through to the global allocator).
// The simulator spawns millions of short-lived activity frames of only a
// handful of distinct sizes, so steady state allocates nothing.
constexpr std::size_t kFrameGranularity = 64;
constexpr std::size_t kFrameBuckets = 32;

struct FreeFrame {
  FreeFrame* next;
};

std::atomic<std::size_t> g_pooled_bytes{0};

// One thread's free lists. The destructor runs at thread exit and returns
// every free-listed frame to the global allocator; without it, each
// short-lived worker thread (the autotuner starts fresh ones per parallel
// pass) would strand its frames for the life of the process.
struct FramePool {
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool();

  std::array<FreeFrame*, kFrameBuckets> free = {};
};

thread_local FramePool g_frame_pool;
// Set once this thread's pool is destroyed: later frees on the thread (from
// other thread-exit destructors) bypass the pool.
thread_local bool g_frame_pool_gone = false;

FramePool::~FramePool() {
  for (std::size_t bucket = 0; bucket < kFrameBuckets; ++bucket) {
    while (FreeFrame* frame = free[bucket]) {
      free[bucket] = frame->next;
      ::operator delete(frame);
      g_pooled_bytes -= bucket * kFrameGranularity;
    }
  }
  g_frame_pool_gone = true;
}

inline std::size_t BucketOf(std::size_t size) {
  return (size + kFrameGranularity - 1) / kFrameGranularity;
}

}  // namespace
#endif  // TILELINK_FRAME_POOL_DISABLED

void* FramePoolAlloc(std::size_t size) {
#ifndef TILELINK_FRAME_POOL_DISABLED
  const std::size_t bucket = BucketOf(size);
  if (bucket < kFrameBuckets) {
    if (!g_frame_pool_gone) {
      if (FreeFrame* frame = g_frame_pool.free[bucket]; frame != nullptr) {
        g_frame_pool.free[bucket] = frame->next;
        return frame;
      }
    }
    g_pooled_bytes += bucket * kFrameGranularity;
    return ::operator new(bucket * kFrameGranularity);
  }
#endif
  return ::operator new(size);
}

void FramePoolFree(void* ptr, std::size_t size) noexcept {
#ifndef TILELINK_FRAME_POOL_DISABLED
  const std::size_t bucket = BucketOf(size);
  if (bucket < kFrameBuckets) {
    if (g_frame_pool_gone) {
      ::operator delete(ptr);
      g_pooled_bytes -= bucket * kFrameGranularity;
      return;
    }
    auto* frame = static_cast<FreeFrame*>(ptr);
    frame->next = g_frame_pool.free[bucket];
    g_frame_pool.free[bucket] = frame;
    return;
  }
#endif
  ::operator delete(ptr);
}

std::size_t FramePoolBytes() {
#ifndef TILELINK_FRAME_POOL_DISABLED
  return g_pooled_bytes.load();
#else
  return 0;
#endif
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

Simulator::Simulator() { blocked_.prev_ = blocked_.next_ = &blocked_; }

Simulator::~Simulator() {
  DestroyFinishedRoots();
  // Detach every parked awaiter first: the frames holding them are
  // destroyed below in no particular order, and an awaiter leaving the
  // list must not touch a neighbour that is already gone.
  for (BlockedNode* node = blocked_.next_; node != &blocked_;) {
    BlockedNode* next = node->next_;
    node->prev_ = node->next_ = nullptr;
    node = next;
  }
  blocked_.prev_ = blocked_.next_ = &blocked_;
  // Roots still suspended at teardown (e.g. after a DeadlockError) would
  // otherwise leak their frames: destroy them explicitly. Frame destruction
  // only runs local destructors — nothing is resumed.
  for (Coro::Handle h : live_roots_) h.destroy();
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
  if (ev.kind == EventKind::kCallback) {
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
  ++queue_pops_;
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
  h.promise().root_slot = static_cast<uint32_t>(live_roots_.size());
  live_roots_.push_back(h);
  ScheduleResume(now_, h);
  if (trace_ != nullptr && !name.empty()) {
    open_root_spans_.emplace(h.address(), OpenRootSpan{std::move(name), now_});
  }
}

void Simulator::ScheduleResume(TimeNs t, std::coroutine_handle<> h) {
  TL_CHECK_GE(t, now_);
  Push(Event{t, next_seq_++, h.address(), kNoRun, EventKind::kResume});
}

void Simulator::ScheduleRepeat(Delay& delay) {
  Push(Event{now_ + delay.step(), next_seq_++, &delay, kNoRun,
             EventKind::kRepeat});
}

void Simulator::StartWave(Delay& first) {
  // Pops every repeat queued directly behind `first` that is in lockstep
  // with it. None of them runs code, so popping them now is their exact
  // order; a lone repeat re-queues on its own.
  const TimeNs step = first.step();
  RepeatWave* wave = nullptr;
  while (!heap_.empty()) {
    const Event& next = heap_.front();
    if (next.kind != EventKind::kRepeat || next.t != now_) break;
    Delay& member = *static_cast<Delay*>(next.payload);
    if (member.times != first.times || member.step() != step) break;
    if (wave == nullptr) {
      if (free_waves_ != nullptr) {
        wave = free_waves_;
        free_waves_ = wave->next_free;
      } else {
        wave = &wave_arena_.emplace_back();
      }
      wave->step = step;
      wave->times = first.times - 1;
      wave->members.push_back(&first);
    }
    wave->members.push_back(&member);
    current_seq_ = next.seq;
    ++processed_events_;
    PopMin();
  }
  if (wave == nullptr) {
    --first.times;
    ScheduleRepeat(first);
    return;
  }
  QueueWave(wave);
}

void Simulator::QueueWave(RepeatWave* wave) {
  const TimeNs t = now_ + wave->step;
  if (wave->times > 1) {
    Push(Event{t, next_seq_, wave, kNoRun, EventKind::kWave});
    next_seq_ += wave->members.size();
    return;
  }
  // Split before the last delay: each member pops and resumes on its own.
  for (Delay* member : wave->members) {
    member->times = 1;
    Push(Event{t, next_seq_++, member, kNoRun, EventKind::kRepeat});
  }
  wave->members.clear();
  wave->next_free = free_waves_;
  free_waves_ = wave;
}

void Simulator::NotifyRootDone(Coro::Handle h) {
  // Swap-and-pop: the last root takes over the finished root's slot.
  const uint32_t slot = h.promise().root_slot;
  Coro::Handle last = live_roots_.back();
  live_roots_[slot] = last;
  last.promise().root_slot = slot;
  live_roots_.pop_back();
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

void Simulator::CancelInstantEnd(InstantEndHook& hook) {
  if (!hook.hook_queued_) return;
  for (InstantEndHook** link = &instant_hooks_; *link != nullptr;
       link = &(*link)->next_hook_) {
    if (*link == &hook) {
      *link = hook.next_hook_;
      break;
    }
  }
  hook.next_hook_ = nullptr;
  hook.hook_queued_ = false;
}

void Simulator::EndInstant() {
  while (InstantEndHook* hook = instant_hooks_) {
    instant_hooks_ = hook->next_hook_;
    hook->next_hook_ = nullptr;
    hook->hook_queued_ = false;
    hook->OnInstantEnd();
  }
}

void Simulator::Run() {
  const TimeNs run_start = now_;
  const uint64_t events_before = processed_events_;
  EndInstant();  // hooks requested outside Run, at this same Now()
  while (!heap_.empty()) {
    const Event ev = PopMin();
    TL_CHECK_GE(ev.t, now_);
    now_ = ev.t;
    current_seq_ = ev.seq;
    ++processed_events_;
    switch (ev.kind) {
      case EventKind::kResume:
        ++resumes_;
        std::coroutine_handle<>::from_address(ev.payload).resume();
        break;
      case EventKind::kCallback: {
        auto* node = static_cast<CallbackNode*>(ev.payload);
        node->invoke(node, /*run=*/true);
        FreeCallbackNode(node);
        break;
      }
      case EventKind::kRepeat: {
        // Exactly what the waiter's next Delay{ns} would do: draw the next
        // sequence number now, or resume it after the last delay.
        Delay& delay = *static_cast<Delay*>(ev.payload);
        if (delay.times > 2) {
          StartWave(delay);
        } else if (--delay.times > 0) {
          ScheduleRepeat(delay);
        } else {
          ++resumes_;
          std::coroutine_handle<>::from_address(delay.waiter).resume();
        }
        break;
      }
      case EventKind::kWave: {
        // Every member's pop at once: nothing runs between them.
        auto* wave = static_cast<RepeatWave*>(ev.payload);
        const uint64_t members = wave->members.size();
        processed_events_ += members - 1;
        current_seq_ = ev.seq + members - 1;
        --wave->times;
        QueueWave(wave);
        break;
      }
    }
    DestroyFinishedRoots();  // rethrows root errors promptly
    if (instant_hooks_ != nullptr &&
        (heap_.empty() || heap_.front().t != now_)) {
      EndInstant();
    }
  }
  if (!live_roots_.empty()) {
    std::ostringstream os;
    os << "deadlock: event queue empty at t=" << now_ << "ns with "
       << live_roots_.size() << " live activities; blocked on:";
    for (const BlockedNode* node = blocked_.next_; node != &blocked_;
         node = node->next_) {
      os << "\n  - " << node->describe_(*node);
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

void Delay::await_suspend(std::coroutine_handle<> h) {
  TL_CHECK_MSG(sim != nullptr, "Delay awaited outside a simulator coroutine");
  if (times == 1) {
    sim->ScheduleResume(sim->Now() + step(), h);
    return;
  }
  TL_CHECK_MSG(times > 1, "Delay repeated " << times << " times");
  Simulator* s = sim;
  waiter = h.address();
  s->ScheduleRepeat(*this);
}

}  // namespace tilelink::sim
