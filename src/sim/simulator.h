// Deterministic single-threaded discrete-event simulator.
//
// Events are coroutine resumptions, plain callbacks or delay repeats, and
// they run in exact (time, sequence) order: ties in time break by insertion
// sequence (or by a sequence reserved earlier, see ReserveSeq/AtSeq), and
// all state mutation happens on the single event loop, so a given program
// produces bit-identical timing and numerics on every run.
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
// a coroutine frame address, a pointer to a pooled CallbackNode
// (small-buffer storage for the callable), for a delay repeat a pointer to
// the suspended Delay awaiter, or for a repeat wave a pointer to a pooled
// RepeatWave, so heap sifts and run appends are memcpy-speed and scheduling
// an event allocates nothing once the pools and the run buffers warm up.
// Coroutine frames are also pooled (see FramePoolAlloc in coro.h) — the
// autotuner runs thousands of short simulations per search, so allocation
// churn dominates without these. Each thread's pool is owned by a
// thread-exit destructor that returns its frames to the global allocator,
// so short-lived worker threads do not strand them.
//
// Repeated delays: a `Delay{ns, times}` with times > 1 queues a repeat event
// that points at the awaiter in the suspended frame. Popping it either
// re-queues it `ns` later, drawing the next sequence number exactly as the
// coroutine's next `Delay{ns}` would have, or, after the last delay, resumes
// the coroutine. A tile block's pure-compute k-loop therefore costs one
// coroutine resume per tile.
//
// Repeat waves: the blocks of one SPMD kernel step through their k-loops in
// lockstep, so repeats usually pop in long back-to-back groups that share
// (time, step, remaining count). Popping such a group runs no code and its
// members re-queue with consecutive sequence numbers, so the group travels
// as one queue entry, a wave: when a repeat pops with at least two delays
// still to go, every repeat queued directly behind it with the same time,
// step and remaining count pops with it, and all of them re-queue as one
// kWave entry keyed on the first member's new sequence number. A wave pop
// counts one processed event per member and draws one sequence number per
// member, exactly as the members' own pops would. Before the last delay a
// wave splits back into single repeats, so every resume, HasEventBefore
// probe and AtSeq placement sees the queue it would see without waves. No
// other event can order between a wave's members: their sequence numbers
// are drawn by the wave, and any other (time, sequence) orders before the
// first or after the last. Repeat events and waves own nothing but pooled
// wave records, so teardown simply drops the queued ones.
//
// End-of-instant hooks: a component that coalesces many same-instant
// changes (the flow network re-rates each port-rail once per instant, not
// once per join or leave) asks for one callback at the end of the current
// instant with AtInstantEnd. Run calls every requested hook after the last
// event at Now() has run, before the clock advances and before it decides
// the queue has drained, so a hook may queue events of its own (at Now() or
// later). The hooks form an intrusive list threaded through the requesting
// objects, so requesting one allocates nothing.
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

// An object Run calls back once at the end of an instant it asked for (see
// Simulator::AtInstantEnd). It must stay alive until its callback has run,
// or cancel it first (Simulator::CancelInstantEnd).
class InstantEndHook {
 public:
  virtual void OnInstantEnd() = 0;

 protected:
  InstantEndHook() = default;
  InstantEndHook(const InstantEndHook&) = delete;
  InstantEndHook& operator=(const InstantEndHook&) = delete;
  ~InstantEndHook() = default;
  bool instant_end_queued() const { return hook_queued_; }

 private:
  friend class Simulator;
  InstantEndHook* next_hook_ = nullptr;
  bool hook_queued_ = false;
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

  enum class EventKind : uint8_t {
    kResume,    // payload: coroutine frame address
    kCallback,  // payload: CallbackNode*
    kRepeat,    // payload: the Delay awaiter of a suspended repeated delay
    kWave,      // payload: RepeatWave* of lockstep repeats (see the header)
  };

  // The members of a queued wave, in sequence order: member i pops at the
  // wave entry's seq + i. Every member has `times` delays still to elapse,
  // the queued one included (the members' own Delay::times go stale while
  // they travel in the wave and are written back when it splits). Records
  // are pooled and recycled through a free list.
  struct RepeatWave {
    TimeNs step = 0;
    int64_t times = 0;
    std::vector<Delay*> members;
    RepeatWave* next_free = nullptr;
  };

  // Trivially copyable; `kind` says what the payload points at. In a heap
  // entry, `run` is the run this event heads, or kNoRun for an event alone
  // at its time.
  struct Event {
    TimeNs t;
    uint64_t seq;
    void* payload;
    uint32_t run;
    EventKind kind;
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
               EventKind::kCallback});
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
               EventKind::kCallback});
  }
  // True if some queued event orders before (t, seq).
  bool HasEventBefore(TimeNs t, uint64_t seq) const {
    if (heap_.empty()) return false;
    const Event& top = heap_.front();
    return top.t < t || (top.t == t && top.seq < seq);
  }

  // Calls hook.OnInstantEnd() once at the end of the current instant, after
  // the last event at Now(); a hook already queued stays queued once. A
  // request made outside Run is served when Run starts, at the same Now().
  void AtInstantEnd(InstantEndHook& hook) {
    if (hook.hook_queued_) return;
    hook.hook_queued_ = true;
    hook.next_hook_ = instant_hooks_;
    instant_hooks_ = &hook;
  }
  // Withdraws a queued hook (a no-op when none is queued).
  void CancelInstantEnd(InstantEndHook& hook);

  // Schedules a coroutine resumption at absolute time t.
  void ScheduleResume(TimeNs t, std::coroutine_handle<> h);
  // Internal: queues the first delay of a repeated Delay (times > 1) whose
  // waiter is suspended; see Delay in coro.h.
  void ScheduleRepeat(Delay& delay);

  // Runs until the event queue is empty. Throws the first exception escaping
  // a root coroutine; throws DeadlockError if activities remain blocked.
  void Run();

  // Number of root coroutines spawned and still running.
  int live_roots() const { return static_cast<int>(live_roots_.size()); }
  uint64_t processed_events() const { return processed_events_; }
  // Coroutine resumptions the event loop has made: one per resume event and
  // one per finished repeated delay, so processed_events() - resumes() is
  // the callbacks plus the repeats that did not wake anything.
  uint64_t resumes() const { return resumes_; }
  // Entries popped off the event queue: processed_events() less the
  // repeats that travelled inside a wave rather than as their own entry.
  uint64_t queue_pops() const { return queue_pops_; }

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
  void StartWave(Delay& first);
  void QueueWave(RepeatWave* wave);
  void DestroyFinishedRoots();
  // Calls and dequeues every queued end-of-instant hook.
  void EndInstant();

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t current_seq_ = 0;  // sequence of the event being processed
  uint64_t processed_events_ = 0;
  uint64_t resumes_ = 0;
  uint64_t queue_pops_ = 0;
  // Min-heap on (t, seq): one entry per run head or lone event.
  std::vector<Event> heap_;
  std::vector<EventRun> runs_;
  std::vector<uint32_t> free_runs_;
  OpenTime open_times_[1 << kOpenTimeBits];
  // Node storage (std::deque: stable addresses) plus the recycling list.
  std::deque<CallbackNode> callback_arena_;
  CallbackNode* free_callbacks_ = nullptr;
  std::deque<RepeatWave> wave_arena_;
  RepeatWave* free_waves_ = nullptr;
  std::vector<Coro::Handle> finished_roots_;
  // Sim-owned roots still running, each at the slot its promise records;
  // destroyed at teardown so a deadlocked (never-completing) program does
  // not leak its coroutines.
  std::vector<Coro::Handle> live_roots_;
  // Head of the circular blocked list, in park order.
  BlockedNode blocked_;
  // End-of-instant hooks queued for the current instant (LIFO).
  InstantEndHook* instant_hooks_ = nullptr;
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
