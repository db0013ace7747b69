// Deterministic single-threaded discrete-event simulator.
//
// Events are either coroutine resumptions or plain callbacks, and they run
// in exact (time, sequence) order: ties in time break by insertion sequence
// (or by a sequence reserved earlier, see ReserveSeq/AtSeq), and all state
// mutation happens on the single event loop, so a given program produces
// bit-identical timing and numerics on every run.
//
// Event queue: SPMD kernels step hundreds of blocks through identical tile
// costs, so most pending events share one of a handful of timestamps. The
// queue therefore keeps *runs*: a run holds events of one time in sequence
// order, and a binary min-heap on (time, sequence) holds one entry per run,
// keyed on the run's head, plus one per lone event. The first push of a
// time is a lone heap entry and the second opens a run; a 64-slot
// direct-mapped cache finds a time's open run, and a push whose sequence
// orders after that run's tail appends in O(1) — nearly every push, since
// sequences only grow. Popping a run's head promotes its next event into
// the same heap slot. A reserved sequence that orders before a run's tail
// gets its own heap entry and the heap merges the two, so every entry point
// keeps the exact (time, sequence) order and the heap top is always the
// true minimum.
//
// Hot path: an Event is a trivially-copyable 32-byte record whose payload is
// either a coroutine frame address or a pointer to a pooled CallbackNode
// (small-buffer storage for the callable), so heap sifts and run appends are
// memcpy-speed and scheduling an event allocates nothing once the node pool
// and the run buffers warm up. Coroutine frames are also pooled
// (see FramePoolAlloc in coro.h) — the autotuner runs thousands of short
// simulations per search, so allocation churn dominates without these. Each
// thread's pool is owned by a thread-exit destructor that returns its frames
// to the global allocator, so short-lived worker threads do not strand them.
//
// Parking allocates nothing either. A parked Flag or Resource awaiter is a
// BlockedNode: it lives in the suspended coroutine's frame and links itself
// into the simulator's intrusive blocked list, so parking and waking are a
// few pointer writes, and a deadlock report walks the list in park order.
// Live root coroutines sit in a dense vector; each root's promise records
// its slot, so Spawn appends and completion swaps-and-pops.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/coro.h"
#include "sim/time.h"

namespace tilelink::sim {

class TraceRecorder;

// Thrown by Run() when the event queue drains while spawned activities are
// still blocked (a lost-wakeup / miswired-channel bug in the simulated
// program). The message records the simulated time of the stall and lists
// what each blocked activity was waiting for — for flag waits, the awaited
// threshold against the last published value.
class DeadlockError : public tilelink::Error {
 public:
  explicit DeadlockError(const std::string& what, TimeNs stall_time = 0)
      : Error(what), stall_time_(stall_time) {}

  // Simulated time at which the event queue drained.
  TimeNs stall_time() const { return stall_time_; }

 private:
  TimeNs stall_time_;
};

// One parked activity on the simulator's blocked list. Awaiters that can
// park (Flag::Awaiter, Resource::Awaiter) derive from it; since the awaiter
// lives in the suspended coroutine's frame, the list needs no storage of its
// own. `describe` is evaluated only if a deadlock is reported, so parking
// builds no string and the report sees the *final* state (e.g. a flag's last
// published value, not its value when the waiter parked).
class BlockedNode {
 public:
  using DescribeFn = std::string (*)(const BlockedNode&);

  explicit BlockedNode(DescribeFn describe) : describe_(describe) {}
  // A copy starts unlinked: only the parked object itself is on the list.
  BlockedNode(const BlockedNode& other) : describe_(other.describe_) {}
  BlockedNode& operator=(const BlockedNode&) = delete;
  ~BlockedNode() { Unpark(); }

  // Leaves the blocked list; a no-op when not parked.
  void Unpark() {
    if (prev_ == nullptr) return;
    prev_->next_ = next_;
    next_->prev_ = prev_;
    prev_ = next_ = nullptr;
  }

 private:
  friend class Simulator;
  BlockedNode() = default;  // the simulator's list head

  BlockedNode* prev_ = nullptr;
  BlockedNode* next_ = nullptr;
  DescribeFn describe_ = nullptr;
};

class Simulator {
 private:
  // Pooled storage for one scheduled callback. The callable lives in the
  // inline buffer (or, when larger, in one boxed heap allocation the node
  // points to); `invoke` moves it out, destroys the stored copy and — when
  // `run` — calls it. Nodes are recycled through a free list.
  struct CallbackNode {
    static constexpr std::size_t kInlineBytes = 48;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*invoke)(CallbackNode*, bool run) = nullptr;
    CallbackNode* next_free = nullptr;
  };

  static constexpr uint32_t kNoRun = ~uint32_t{0};

  // Trivially copyable: payload is a coroutine frame address (callback ==
  // false) or a CallbackNode* (callback == true). In a heap entry, `run` is
  // the run this event heads, or kNoRun for an event alone at its time.
  struct Event {
    TimeNs t;
    uint64_t seq;
    void* payload;
    uint32_t run;
    bool callback;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Spawns a root coroutine; the simulator owns and destroys its frame.
  void Spawn(Coro coro, std::string name = "");

  // Schedules a plain callback at absolute time t (>= Now()).
  template <typename F>
  void At(TimeNs t, F&& fn) {
    TL_CHECK_GE(t, now_);
    Push(Event{t, next_seq_++, MakeCallback(std::forward<F>(fn)), kNoRun,
               /*callback=*/true});
  }
  template <typename F>
  void After(TimeNs delta, F&& fn) {
    At(now_ + delta, std::forward<F>(fn));
  }

  // Tie-break reservation. ReserveSeq() takes the next sequence number
  // without queuing anything; AtSeq(t, seq, fn) later queues `fn` at time t,
  // ordered among same-time events as if it had been queued when `seq` was
  // reserved. (t, seq) must order after the event being processed. Lets a
  // component that coalesces many would-be events into one wake-up keep
  // that wake-up at their exact place in the queue.
  uint64_t ReserveSeq() { return next_seq_++; }
  template <typename F>
  void AtSeq(TimeNs t, uint64_t seq, F&& fn) {
    TL_CHECK(t > now_ || (t == now_ && seq > current_seq_));
    TL_CHECK_LT(seq, next_seq_);
    Push(Event{t, seq, MakeCallback(std::forward<F>(fn)), kNoRun,
               /*callback=*/true});
  }
  // True if some queued event orders before (t, seq).
  bool HasEventBefore(TimeNs t, uint64_t seq) const {
    if (heap_.empty()) return false;
    const Event& top = heap_.front();
    return top.t < t || (top.t == t && top.seq < seq);
  }

  // Schedules a coroutine resumption at absolute time t.
  void ScheduleResume(TimeNs t, std::coroutine_handle<> h);

  // Runs until the event queue is empty. Throws the first exception escaping
  // a root coroutine; throws DeadlockError if activities remain blocked.
  void Run();

  // Number of root coroutines spawned and still running.
  int live_roots() const { return static_cast<int>(live_roots_.size()); }
  uint64_t processed_events() const { return processed_events_; }

  // Appends `node` to the blocked list (deadlock diagnostics) until it
  // unparks; the node must not already be parked.
  void Park(BlockedNode& node) {
    node.prev_ = blocked_.prev_;
    node.next_ = &blocked_;
    blocked_.prev_->next_ = &node;
    blocked_.prev_ = &node;
  }

  // Optional chrome-trace recorder (not owned may be null). While attached,
  // Spawn/NotifyRootDone record one structural span per named root
  // coroutine and Run records an event-loop span; with no recorder the hot
  // path allocates nothing.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }
  // Trace process id the simulator's own spans (roots, event loop) land on.
  void set_trace_pid(int pid) { trace_pid_ = pid; }
  int trace_pid() const { return trace_pid_; }

  // Internal: called from Coro final suspend for sim-owned roots.
  void NotifyRootDone(Coro::Handle h);

 private:
  template <typename F>
  CallbackNode* MakeCallback(F&& fn) {
    using Fn = std::decay_t<F>;
    CallbackNode* node = AllocCallbackNode();
    if constexpr (sizeof(Fn) <= CallbackNode::kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
      node->invoke = [](CallbackNode* n, bool run) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(n->storage));
        if (run) {
          Fn local(std::move(*f));
          f->~Fn();
          local();
        } else {
          f->~Fn();
        }
      };
    } else {
      // Callable too large for the inline buffer: box it in one allocation.
      Fn* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(node->storage, &boxed, sizeof(boxed));
      node->invoke = [](CallbackNode* n, bool run) {
        Fn* f;
        std::memcpy(&f, n->storage, sizeof(f));
        std::unique_ptr<Fn> owned(f);
        if (run) (*owned)();
      };
    }
    return node;
  }

  CallbackNode* AllocCallbackNode() {
    if (free_callbacks_ != nullptr) {
      CallbackNode* node = free_callbacks_;
      free_callbacks_ = node->next_free;
      return node;
    }
    callback_arena_.emplace_back();
    return &callback_arena_.back();
  }
  void FreeCallbackNode(CallbackNode* node) {
    node->next_free = free_callbacks_;
    free_callbacks_ = node;
  }

  static constexpr TimeNs kNoTime = -1;  // event times are >= 0
  static constexpr int kOpenTimeBits = 6;

  // Events of one time in sequence order; events[head] is mirrored by the
  // run's heap entry. t == kNoTime while the run is free.
  struct EventRun {
    TimeNs t = kNoTime;
    uint32_t head = 0;
    std::vector<Event> events;
  };
  // One slot of the direct-mapped "open run per time" cache. run == kNoRun
  // records that `t` has seen a push but no run yet. The run it names may
  // since have been freed or recycled, so a hit is valid only while the
  // run is still open at `t`.
  struct OpenTime {
    TimeNs t = kNoTime;
    uint32_t run = kNoRun;
  };

  static bool Before(const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  void Push(const Event& ev);
  Event PopMin();
  void HeapPush(const Event& ev);
  void SiftDown(std::size_t hole, const Event& ev);
  uint32_t OpenRun(const Event& ev);
  void DestroyEvent(const Event& ev);
  void DestroyFinishedRoots();

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t current_seq_ = 0;  // sequence of the event being processed
  uint64_t processed_events_ = 0;
  // Min-heap on (t, seq): one entry per run head or lone event.
  std::vector<Event> heap_;
  std::vector<EventRun> runs_;
  std::vector<uint32_t> free_runs_;
  OpenTime open_times_[1 << kOpenTimeBits];
  // Node storage (std::deque: stable addresses) plus the recycling list.
  std::deque<CallbackNode> callback_arena_;
  CallbackNode* free_callbacks_ = nullptr;
  std::vector<Coro::Handle> finished_roots_;
  // Sim-owned roots still running, each at the slot its promise records;
  // destroyed at teardown so a deadlocked (never-completing) program does
  // not leak its coroutines.
  std::vector<Coro::Handle> live_roots_;
  // Head of the circular blocked list, in park order.
  BlockedNode blocked_;
  TraceRecorder* trace_ = nullptr;
  int trace_pid_ = 0;
  // Open root spans (spawn -> completion), populated only while a recorder
  // is attached. Keyed by frame address: safe against frame-pool address
  // reuse because the entry is erased in NotifyRootDone before the frame is
  // destroyed.
  struct OpenRootSpan {
    std::string name;
    TimeNs start;
  };
  std::unordered_map<void*, OpenRootSpan> open_root_spans_;
};

}  // namespace tilelink::sim
