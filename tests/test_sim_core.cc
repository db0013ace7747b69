// Unit tests for the discrete-event simulator core: event ordering (with a
// seeded property test of the same-time batched queue), coroutine
// composition, FIFO resources, flags, deadlock detection, teardown, and the
// end-of-instant hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/counting_new.h"
#include "sim/coro.h"
#include "sim/coro_utils.h"
#include "sim/flag.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "tensor/tensor.h"

namespace tilelink::sim {
namespace {

Coro DelayAndRecord(TimeNs delay, std::vector<TimeNs>* log, Simulator* sim) {
  co_await Delay{delay};
  log->push_back(sim->Now());
}

TEST(SimCore, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<TimeNs> log;
  sim.Spawn(DelayAndRecord(300, &log, &sim));
  sim.Spawn(DelayAndRecord(100, &log, &sim));
  sim.Spawn(DelayAndRecord(200, &log, &sim));
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 100);
  EXPECT_EQ(log[1], 200);
  EXPECT_EQ(log[2], 300);
}

// A hook that logs each call's time and the events seen so far, and may
// queue one event at Now() or later from its first call.
class LoggingHook : public InstantEndHook {
 public:
  explicit LoggingHook(Simulator* sim) : sim_(sim) {}
  void OnInstantEnd() override {
    calls.emplace_back(sim_->Now(), events);
    if (queue_at >= 0) {
      const TimeNs at = queue_at;
      queue_at = -1;
      sim_->At(at, [this] { ++events; });
    }
  }
  std::vector<std::pair<TimeNs, int>> calls;  // (time, events seen)
  int events = 0;
  TimeNs queue_at = -1;

 private:
  Simulator* sim_;
};

TEST(SimCore, InstantEndHookRunsAfterTheLastEventOfItsInstant) {
  Simulator sim;
  LoggingHook hook(&sim);
  // Three events at t=5, the hook requested by the first (twice) and again
  // at t=9: it runs once per instant, after the instant's last event and
  // before the clock moves on.
  for (int i = 0; i < 3; ++i) {
    sim.At(5, [&] {
      ++hook.events;
      sim.AtInstantEnd(hook);
      sim.AtInstantEnd(hook);
    });
  }
  sim.At(9, [&] {
    ++hook.events;
    sim.AtInstantEnd(hook);
  });
  sim.At(12, [&] { ++hook.events; });
  sim.Run();
  EXPECT_EQ(hook.calls, (std::vector<std::pair<TimeNs, int>>{{5, 3}, {9, 4}}));

  // An event the hook queues at Now() runs in the same instant; one it
  // queues later keeps Run going. A request made outside Run is served
  // when Run starts, at the same Now().
  hook.calls.clear();
  hook.queue_at = sim.Now();
  sim.AtInstantEnd(hook);
  sim.At(sim.Now() + 4, [&] {
    ++hook.events;
    sim.AtInstantEnd(hook);
  });
  sim.Run();
  EXPECT_EQ(hook.calls,
            (std::vector<std::pair<TimeNs, int>>{{12, 5}, {16, 7}}));
  EXPECT_EQ(hook.events, 7);

  // A cancelled request never runs.
  hook.calls.clear();
  sim.At(sim.Now() + 1, [&] {
    sim.AtInstantEnd(hook);
    sim.CancelInstantEnd(hook);
  });
  sim.Run();
  EXPECT_TRUE(hook.calls.empty());
}

TEST(SimCore, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

Coro Nested(Simulator* sim, TimeNs* out) {
  co_await Delay{10};
  *out = sim->Now();
}

Coro Outer(Simulator* sim, TimeNs* child_time, TimeNs* parent_time) {
  co_await Delay{5};
  co_await Nested(sim, child_time);
  *parent_time = sim->Now();
}

TEST(SimCore, ChildCoroutineRunsInline) {
  Simulator sim;
  TimeNs child = -1, parent = -1;
  sim.Spawn(Outer(&sim, &child, &parent));
  sim.Run();
  EXPECT_EQ(child, 15);
  EXPECT_EQ(parent, 15);  // parent resumes at the same instant
}

Coro ThrowingChild() {
  co_await Delay{1};
  throw Error("child failed");
}

Coro CatchingParent(bool* caught) {
  try {
    co_await ThrowingChild();
  } catch (const Error&) {
    *caught = true;
  }
}

TEST(SimCore, ChildExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  sim.Spawn(CatchingParent(&caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

Coro UseResource(Resource* res, TimeNs hold, std::vector<TimeNs>* starts,
                 Simulator* sim) {
  co_await res->Acquire();
  starts->push_back(sim->Now());
  co_await Delay{hold};
  res->Release();
}

TEST(SimCore, ResourceFifoAdmission) {
  Simulator sim;
  Resource res(&sim, 2, "sms");
  std::vector<TimeNs> starts;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn(UseResource(&res, 100, &starts, &sim));
  }
  sim.Run();
  ASSERT_EQ(starts.size(), 5u);
  // Two run immediately, then one each time a slot frees (waves).
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 0);
  EXPECT_EQ(starts[2], 100);
  EXPECT_EQ(starts[3], 100);
  EXPECT_EQ(starts[4], 200);
}

TEST(SimCore, ResourceCountsAreConsistent) {
  Simulator sim;
  Resource res(&sim, 3, "r");
  EXPECT_EQ(res.capacity(), 3);
  EXPECT_EQ(res.available(), 3);
  EXPECT_EQ(res.in_use(), 0);
}

Coro WaitFlag(Flag* flag, uint64_t threshold, TimeNs* when, Simulator* sim) {
  co_await flag->WaitGe(threshold);
  *when = sim->Now();
}

Coro SetFlagAt(Flag* flag, TimeNs t, uint64_t value) {
  co_await Delay{t};
  flag->Set(value);
}

TEST(SimCore, FlagWakesAtThreshold) {
  Simulator sim;
  Flag flag(&sim, "f");
  TimeNs woke = -1;
  sim.Spawn(WaitFlag(&flag, 3, &woke, &sim));
  sim.Spawn(SetFlagAt(&flag, 100, 1));
  sim.Spawn(SetFlagAt(&flag, 200, 3));
  sim.Run();
  EXPECT_EQ(woke, 200);
}

TEST(SimCore, FlagIsMonotonic) {
  Simulator sim;
  Flag flag(&sim, "f");
  flag.Set(5);
  flag.Set(3);  // lower value ignored
  EXPECT_EQ(flag.value(), 5u);
  flag.Add(2);
  EXPECT_EQ(flag.value(), 7u);
}

Coro NeverWakes(Flag* flag) { co_await flag->WaitGe(1); }

TEST(SimCore, DeadlockIsDetectedAndNamed) {
  Simulator sim;
  Flag flag(&sim, "orphan_flag");
  sim.Spawn(NeverWakes(&flag));
  try {
    sim.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("orphan_flag"), std::string::npos);
  }
}

// Waiters parked at thresholds 3, 1, 2; Add(2) must wake the second and
// third in arrival order and keep the first parked.
TEST(SimCore, FlagWakesSatisfiedWaitersInArrivalOrder) {
  Simulator sim;
  Flag flag(&sim, "f");
  std::vector<int> woke;
  auto waiter = [](Flag* f, uint64_t threshold, int id,
                   std::vector<int>* out) -> Coro {
    co_await f->WaitGe(threshold);
    out->push_back(id);
  };
  sim.Spawn(waiter(&flag, 3, 0, &woke));
  sim.Spawn(waiter(&flag, 1, 1, &woke));
  sim.Spawn(waiter(&flag, 2, 2, &woke));
  sim.At(10, [&] {
    flag.Add(2);
    EXPECT_EQ(flag.num_waiters(), 1u);
  });
  sim.At(20, [&] {
    EXPECT_EQ(woke, (std::vector<int>{1, 2}));
    flag.Add(1);
  });
  sim.Run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(flag.num_waiters(), 0u);
}

Coro HoldForever(Resource* res) { co_await res->Acquire(); }

TEST(SimCore, ResourceDeadlockIsNamed) {
  Simulator sim;
  Resource res(&sim, 1, "copy_engine");
  sim.Spawn(HoldForever(&res));  // acquires and never releases
  sim.Spawn(HoldForever(&res));  // parks forever
  try {
    sim.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("resource 'copy_engine' acquire"),
              std::string::npos)
        << e.what();
  }
}

Coro ParkOnFlagAfter(TimeNs delay, Flag* flag, uint64_t threshold) {
  co_await Delay{delay};
  co_await flag->WaitGe(threshold);
}

Coro ParkOnResourceAfter(TimeNs delay, Resource* res) {
  co_await Delay{delay};
  co_await res->Acquire();
}

// The report lists every activity still parked, in the order it parked —
// not spawn order, not address order — and drops the one woken meanwhile.
TEST(SimCore, DeadlockListsEveryParkedWaiterInParkOrder) {
  Simulator sim;
  Flag a(&sim, "flag_a");
  Flag b(&sim, "flag_b");
  Flag woken(&sim, "flag_woken");
  Resource res(&sim, 1, "res_r");
  sim.Spawn(HoldForever(&res));  // holds the only unit from t=0
  sim.Spawn(ParkOnFlagAfter(30, &a, 1));
  sim.Spawn(ParkOnResourceAfter(10, &res));
  sim.Spawn(ParkOnFlagAfter(3, &woken, 1));
  sim.Spawn(ParkOnFlagAfter(20, &b, 4));
  sim.Spawn(ParkOnFlagAfter(5, &a, 2));
  sim.Spawn(ParkOnResourceAfter(40, &res));
  sim.At(15, [&] { woken.Set(1); });
  sim.At(16, [&] { b.Set(3); });
  try {
    sim.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    const std::string header = "blocked on:";
    const size_t at = what.find(header);
    ASSERT_NE(at, std::string::npos) << what;
    std::istringstream lines(what.substr(at + header.size()));
    std::vector<std::string> listed;
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty()) listed.push_back(line);
    }
    EXPECT_EQ(listed,
              (std::vector<std::string>{
                  "  - flag 'flag_a' wait >= 2 (last published value 0)",
                  "  - resource 'res_r' acquire",
                  "  - flag 'flag_b' wait >= 4 (last published value 3)",
                  "  - flag 'flag_a' wait >= 1 (last published value 0)",
                  "  - resource 'res_r' acquire",
              }))
        << what;
    EXPECT_EQ(e.stall_time(), 40);
  }
}

Coro PingFlags(Flag* ping, Flag* pong, int rounds) {
  for (int i = 1; i <= rounds; ++i) {
    ping->Set(static_cast<uint64_t>(i));
    co_await pong->WaitGe(static_cast<uint64_t>(i));
  }
}

Coro PongFlags(Flag* ping, Flag* pong, int rounds) {
  for (int i = 1; i <= rounds; ++i) {
    co_await ping->WaitGe(static_cast<uint64_t>(i));
    co_await Delay{1};
    pong->Set(static_cast<uint64_t>(i));
  }
}

Coro Contend(Resource* res, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await res->Acquire();
    co_await Delay{2};
    res->Release();
  }
}

// One pass of a flag ping-pong plus four coroutines contending for a
// one-unit resource; every round parks and wakes.
void ParkWakePass(Simulator& sim, Flag& ping, Flag& pong, Resource& res) {
  ping.Reset();
  pong.Reset();
  sim.Spawn(PingFlags(&ping, &pong, 200));
  sim.Spawn(PongFlags(&ping, &pong, 200));
  for (int i = 0; i < 4; ++i) sim.Spawn(Contend(&res, 50));
  sim.Run();
}

// Once the frame pool, the event queue and the waiter lists are warm, a
// park/wake loop allocates nothing: parking links the awaiter into the
// blocked list and the resource queue in place.
TEST(SimCore, WarmParkWakeLoopAllocatesNothing) {
#ifdef TILELINK_FRAME_POOL_DISABLED
  GTEST_SKIP() << "coroutine frames are not pooled in this build";
#endif
  Simulator sim;
  Flag ping(&sim, "ping");
  Flag pong(&sim, "pong");
  Resource res(&sim, 1, "res");
  ParkWakePass(sim, ping, pong, res);  // warm-up
  const uint64_t events = sim.processed_events();
  const uint64_t before = HeapAllocations();
  ParkWakePass(sim, ping, pong, res);
  EXPECT_EQ(HeapAllocations() - before, 0u);
  EXPECT_EQ(sim.processed_events() - events, events);
  EXPECT_EQ(pong.value(), 200u);
}

// Tensor views keep their shape and strides inline, so the views a kernel's
// DataSpec callbacks build per tile (copy, Slice, Select, BufferRange)
// never touch the heap.
TEST(SimCore, TensorViewsAllocateNothing) {
  rt::Buffer buf(0, "t", 4 * 8 * 16 * 2, /*materialize=*/false);
  const Tensor t(&buf, {4, 8, 16, 2}, DType::kBF16);
  const uint64_t before = HeapAllocations();
  const Tensor copy = t;
  const Tensor rows = copy.Slice(1, 2, 4);
  const Tensor plane = rows.Select(0, 3).Select(2, 1);
  int64_t lo = 0, hi = 0;
  plane.BufferRange(&lo, &hi);
  EXPECT_EQ(HeapAllocations() - before, 0u);
  EXPECT_EQ(plane.shape(), TensorDims({4, 16}));
  EXPECT_EQ(plane.strides(), TensorDims({32, 2}));
  EXPECT_EQ(lo, 3 * 256 + 2 * 32 + 1);
  EXPECT_EQ(hi, lo + 3 * 32 + 15 * 2 + 1);
}

// A thread's frame pool returns its frames to the global allocator when
// the thread exits, so a short-lived worker leaves the pooled bytes where
// they were.
TEST(SimCore, ExitedThreadReturnsItsPooledFrames) {
  const std::size_t before = FramePoolBytes();
  std::size_t during = 0;
  std::thread worker([&during] {
    Simulator sim;
    Resource res(&sim, 2, "res");
    for (int i = 0; i < 64; ++i) sim.Spawn(Contend(&res, 3));
    sim.Run();
    during = FramePoolBytes();
  });
  worker.join();
#ifndef TILELINK_FRAME_POOL_DISABLED
  EXPECT_GT(during, before);
#endif
  EXPECT_EQ(FramePoolBytes(), before);
}

Coro SmallDelay(int* count) {
  co_await Delay{1};
  ++(*count);
}

TEST(SimCore, WhenAllJoinsAllChildren) {
  Simulator sim;
  int count = 0;
  auto parent = [](Simulator*, int* c) -> Coro {
    std::vector<Coro> children;
    for (int i = 0; i < 10; ++i) children.push_back(SmallDelay(c));
    co_await WhenAll(std::move(children));
    EXPECT_EQ(*c, 10);
  };
  sim.Spawn(parent(nullptr, &count));
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimCore, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulator sim;
    Resource res(&sim, 3, "r");
    std::vector<TimeNs> starts;
    for (int i = 0; i < 20; ++i) {
      sim.Spawn(UseResource(&res, 37 + i, &starts, &sim));
    }
    sim.Run();
    return starts;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Event-queue property test: a seeded mix of every scheduling entry point,
// checked against a reference ordering by (time, sequence).

uint64_t SplitMix64(uint64_t* state) {
  uint64_t x = (*state += 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

using Key = std::pair<TimeNs, uint64_t>;  // (time, sequence)

// Mirrors the simulator's sequence counter: every call that takes a
// sequence number (At, ScheduleResume, Delay, Spawn, ReserveSeq) goes
// through the model, which records the (time, seq) it expects to run.
// With `repeats`, walkers also await repeated delays `Delay{ns, n}`, which
// the model treats as the reference: n single delays, each taking its
// sequence number when the previous one runs. Bursts of lockstep walkers
// then await an equal Delay{ns, n} from one timestamp, so the simulator
// moves their repeats as waves.
struct QueueModel {
  QueueModel(Simulator* sim, uint64_t seed, int budget, bool repeats = false)
      : sim_(sim), rng_(seed), budget_(budget), repeats_(repeats) {}

  uint64_t Draw(uint64_t n) { return SplitMix64(&rng_) % n; }

  // Delays mixing zero-delay pushes, a few lockstep tile costs and many
  // distinct times (well over the queue's 64 open-run cache slots).
  TimeNs PickDelay() {
    switch (Draw(4)) {
      case 0: return 0;
      case 1: return 10 * static_cast<TimeNs>(1 + Draw(3));
      default: return static_cast<TimeNs>(1 + Draw(3000));
    }
  }

  Key Take(TimeNs t) {
    const Key key{t, next_seq_++};
    pending_.insert(key);
    scheduled_.push_back(key);
    --budget_;
    return key;
  }

  void ScheduleCallback(TimeNs t) {
    const Key key = Take(t);
    sim_->At(t, [this, key] { OnRun(key); });
  }

  void SpawnWalker() {
    const Key key = Take(sim_->Now());
    sim_->Spawn(Walker(this, key, 1 + static_cast<int>(Draw(40))));
  }

  // Checks `key` is the reference minimum, probes HasEventBefore, then
  // (with `follow_up`) schedules a random batch of follow-up work.
  void OnRun(const Key& key, bool follow_up = true) {
    RunRepeatsBefore(key);
    executed_.push_back(key);
    if (pending_.empty() || *pending_.begin() != key ||
        sim_->Now() != key.first) {
      ++order_errors_;
    }
    pending_.erase(key);
    current_seq_ = key.second;
    Probe(key);
    Probe({key.first, next_seq_});
    Probe({key.first + PickDelay(), Draw(next_seq_ + 1)});
    if (!pending_.empty()) {
      const Key min = *pending_.begin();
      Probe(min);
      Probe({min.first, min.second + 1});
    }
    if (!follow_up || budget_ <= 0) return;
    const TimeNs now = sim_->Now();
    switch (Draw(8)) {
      case 0: {  // a burst of same-time events (one lockstep tile wave)
        const TimeNs t = now + 10 * static_cast<TimeNs>(1 + Draw(3));
        const int n = 100 + static_cast<int>(Draw(300));
        for (int i = 0; i < n; ++i) ScheduleCallback(t);
        burst_time_ = t;
        break;
      }
      case 1: {  // reserve a sequence now, place it later
        const uint64_t seq = sim_->ReserveSeq();
        if (seq != next_seq_) ++order_errors_;
        ++next_seq_;
        reserved_.push_back(seq);
        break;
      }
      case 2: {  // place a reserved sequence, often before a run's tail
        if (reserved_.empty()) break;
        const uint64_t seq = reserved_.back();
        reserved_.pop_back();
        TimeNs t = burst_time_ >= now ? burst_time_ : now + PickDelay();
        if (t == now && seq <= current_seq_) t = now + 1;
        const Key key{t, seq};
        pending_.insert(key);
        scheduled_.push_back(key);
        --budget_;
        sim_->AtSeq(t, seq, [this, key] { OnRun(key); });
        break;
      }
      case 3: {  // zero-delay pushes from inside a running callback
        // Open a run at a later time first: when this event drained its
        // own run, that run's id is recycled for the later time while the
        // open-run cache still maps `now` to it.
        const TimeNs later = now + 1 + static_cast<TimeNs>(Draw(3000));
        ScheduleCallback(later);
        ScheduleCallback(later);
        for (int i = 0, n = 1 + static_cast<int>(Draw(4)); i < n; ++i) {
          ScheduleCallback(now);
        }
        break;
      }
      case 4:
        SpawnWalker();
        break;
      case 5:
        if (repeats_ && Draw(4) == 0) {
          LockstepBurst();
          break;
        }
        [[fallthrough]];
      default:
        for (int i = 0, n = 1 + static_cast<int>(Draw(3)); i < n; ++i) {
          ScheduleCallback(now + PickDelay());
        }
        break;
    }
  }

  // Reserves a sequence now and places a callback at time t with it.
  void PlaceReserved(TimeNs t) {
    const uint64_t seq = sim_->ReserveSeq();
    if (seq != next_seq_) ++order_errors_;
    ++next_seq_;
    const Key key{t, seq};
    pending_.insert(key);
    scheduled_.push_back(key);
    --budget_;
    sim_->AtSeq(t, seq, [this, key] { OnRun(key); });
  }

  // K walkers that each await Delay{ns, n} twice from this timestamp, n in
  // {2, 3, 8} and ns zero, negative or a tile cost, except one member with
  // another n: the simulator's gather must stop at that member. A sequence
  // reserved now lands at the wave time two delays on, ordered before the
  // wave; a callback queued behind the first delays reserves one there
  // after the wave.
  void LockstepBurst() {
    static constexpr std::array<int, 3> kTimes = {2, 3, 8};
    const int n = kTimes[Draw(kTimes.size())];
    const TimeNs ns = Draw(4) == 0 ? -1 - static_cast<TimeNs>(Draw(50))
                      : Draw(4) == 0 ? 0
                                     : 10 * static_cast<TimeNs>(1 + Draw(3));
    const TimeNs step = std::max<TimeNs>(ns, 0);
    const int walkers = 2 + static_cast<int>(Draw(40));
    const int odd = static_cast<int>(Draw(static_cast<uint64_t>(walkers)));
    PlaceReserved(sim_->Now() + 2 * step);
    for (int i = 0; i < walkers; ++i) {
      const Key key = Take(sim_->Now());
      sim_->Spawn(LockstepWalker(this, key, ns, i == odd ? n + 1 : n));
    }
    // Runs after every walker has queued its first delay.
    const Key placer = Take(sim_->Now());
    sim_->At(placer.first, [this, placer, step] {
      OnRun(placer, /*follow_up=*/false);
      const Key behind = Take(placer.first + step);
      sim_->At(behind.first, [this, behind, step] {
        OnRun(behind, /*follow_up=*/false);
        PlaceReserved(behind.first + step);
      });
    });
  }

  void Probe(const Key& at) {
    const bool want = !pending_.empty() && *pending_.begin() < at;
    if (sim_->HasEventBefore(at.first, at.second) != want) ++probe_errors_;
  }

  // The reference for a repeated delay: n single delays, each taking the
  // next sequence number when the previous one runs. Runs the earliest
  // queued one; a chain's last delay resumes its walker, which reports that
  // key itself.
  void RunRepeat() {
    auto node = chains_.extract(chains_.begin());
    const Key done = node.key();
    Chain chain = node.mapped();
    if (pending_.empty() || *pending_.begin() != done) ++order_errors_;
    pending_.erase(done);
    executed_.push_back(done);
    *chain.key = Take(done.first + chain.step);
    if (--chain.left > 0) chains_.emplace(*chain.key, chain);
  }
  void RunRepeatsBefore(const Key& key) {
    while (!chains_.empty() && chains_.begin()->first < key) RunRepeat();
  }
  // A walker woke from its repeated delay: every queued delay up to its
  // chain's last one has run.
  void FinishChain(const Key* key) {
    auto in_chain = [key](const auto& entry) {
      return entry.second.key == key;
    };
    while (std::any_of(chains_.begin(), chains_.end(), in_chain)) RunRepeat();
  }

  // Sleeps through Delay, a direct ScheduleResume and, with `repeats_`, a
  // repeated Delay{ns, n}: n in 1..8, ns zero, negative or positive.
  static Coro Walker(QueueModel* m, Key key, int steps) {
    m->OnRun(key);
    ++m->resumes_;
    for (int i = 0; i < steps; ++i) {
      const TimeNs delay = m->PickDelay();
      switch (i % (m->repeats_ ? 3 : 2)) {
        case 0:
          key = m->Take(m->sim_->Now() + delay);
          co_await Delay{delay};
          break;
        case 1:
          key = m->Take(m->sim_->Now() + delay);
          co_await ResumeAt{m->sim_, key.first};
          break;
        default: {
          const TimeNs ns = m->Draw(4) == 0
                                ? -1 - static_cast<TimeNs>(m->Draw(50))
                                : delay;
          const int n = 1 + static_cast<int>(m->Draw(8));
          m->StartChain(&key, ns, n);
          co_await Delay{ns, n};
          m->FinishChain(&key);
          break;
        }
      }
      m->OnRun(key);
      ++m->resumes_;
    }
  }

  // Takes the key of the first of n delays of ns into *key and records the
  // rest of the chain.
  void StartChain(Key* key, TimeNs ns, int n) {
    const TimeNs step = std::max<TimeNs>(ns, 0);
    *key = Take(sim_->Now() + step);
    if (n > 1) chains_.emplace(*key, Chain{step, n - 1, key});
  }

  // One member of a LockstepBurst. Its first resume schedules nothing, so
  // the burst's first delays queue back to back; its wake-ups do.
  static Coro LockstepWalker(QueueModel* m, Key key, TimeNs ns, int n) {
    m->OnRun(key, /*follow_up=*/false);
    ++m->resumes_;
    for (int round = 0; round < 2; ++round) {
      m->StartChain(&key, ns, n);
      co_await Delay{ns, n};
      m->FinishChain(&key);
      m->OnRun(key);
      ++m->resumes_;
    }
  }

  struct ResumeAt {
    Simulator* sim;
    TimeNs t;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim->ScheduleResume(t, h); }
    void await_resume() const {}
  };

  Simulator* sim_;
  uint64_t rng_;
  int budget_;
  uint64_t next_seq_ = 0;
  uint64_t current_seq_ = 0;
  TimeNs burst_time_ = -1;
  std::set<Key> pending_;
  std::vector<Key> scheduled_;
  std::vector<Key> executed_;
  std::vector<uint64_t> reserved_;
  // Repeated delays in flight, keyed by the delay now queued: the delay
  // length, the delays still to take after it and the walker's key.
  struct Chain {
    TimeNs step;
    int left;
    Key* key;
  };
  bool repeats_;
  std::map<Key, Chain> chains_;
  uint64_t resumes_ = 0;
  int order_errors_ = 0;
  int probe_errors_ = 0;
};

TEST(SimCore, EventQueueMatchesReferenceOrder) {
  for (const bool repeats : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (repeats ? " with repeated delays" : ""));
      Simulator sim;
      QueueModel model(&sim, seed, 20000, repeats);
      for (int i = 0; i < 8; ++i) model.SpawnWalker();
      for (int i = 0; i < 200; ++i) {
        model.ScheduleCallback(static_cast<TimeNs>(model.Draw(5000)));
      }
      sim.Run();
      EXPECT_EQ(model.order_errors_, 0);
      EXPECT_EQ(model.probe_errors_, 0);
      EXPECT_TRUE(model.pending_.empty());
      EXPECT_TRUE(model.chains_.empty());
      std::vector<Key> reference = model.scheduled_;
      std::sort(reference.begin(), reference.end());
      EXPECT_EQ(model.executed_, reference);
      EXPECT_EQ(sim.processed_events(), reference.size());
      EXPECT_GT(reference.size(), 20000u);
      // Every walker wake-up is one resume; repeats wake nothing.
      EXPECT_EQ(sim.resumes(), model.resumes_);
      // Lockstep bursts moved some repeats as waves.
      if (repeats) {
        EXPECT_LT(sim.queue_pops(), sim.processed_events());
      } else {
        EXPECT_EQ(sim.queue_pops(), sim.processed_events());
      }
    }
  }
}

Coro RepeatedDelay(TimeNs ns, int64_t times, std::vector<TimeNs>* log,
                   Simulator* sim) {
  co_await Delay{ns, times};
  log->push_back(sim->Now());
}

// Delay{ns, n} is n queued events and one resume, ending where n single
// delays would; a negative delay counts as zero, and n < 1 is rejected.
TEST(SimCore, RepeatedDelayCountsEveryDelayAndResumesOnce) {
  Simulator sim;
  std::vector<TimeNs> log;
  sim.Spawn(RepeatedDelay(7, 5, &log, &sim));
  sim.Spawn(RepeatedDelay(-3, 4, &log, &sim));
  sim.Spawn(RepeatedDelay(0, 1, &log, &sim));
  sim.Run();
  EXPECT_EQ(log, (std::vector<TimeNs>{0, 0, 35}));
  EXPECT_EQ(sim.processed_events(), 3u + 5u + 4u + 1u);
  EXPECT_EQ(sim.resumes(), 3u + 3u);

  Simulator bad;
  bad.Spawn(RepeatedDelay(7, 0, &log, &bad));
  EXPECT_THROW(bad.Run(), Error);
}

// K lockstep roots awaiting Delay{ns, n}, n >= 3, pop K spawn resumes, K
// first delays gathered into one wave, n - 2 wave entries and the K last
// delays split back out of it: 3K + n - 2 queue entries for K + K n events.
TEST(SimCore, LockstepRepeatsTravelAsOneWave) {
  for (const int roots : {1, 2, 7}) {
    for (const int64_t n : {3, 4, 10}) {
      for (const TimeNs ns : {TimeNs{5}, TimeNs{0}, TimeNs{-2}}) {
        SCOPED_TRACE(std::to_string(roots) + " roots, Delay{" +
                     std::to_string(ns) + ", " + std::to_string(n) + "}");
        Simulator sim;
        std::vector<TimeNs> log;
        for (int i = 0; i < roots; ++i) {
          sim.Spawn(RepeatedDelay(ns, n, &log, &sim));
        }
        sim.Run();
        const auto k = static_cast<uint64_t>(roots);
        const auto times = static_cast<uint64_t>(n);
        EXPECT_EQ(sim.queue_pops(), 3 * k + times - 2);
        EXPECT_EQ(sim.processed_events(), k + k * times);
        EXPECT_EQ(sim.resumes(), 2 * k);
        EXPECT_EQ(log, std::vector<TimeNs>(static_cast<size_t>(roots),
                                           std::max<TimeNs>(ns, 0) * n));
      }
    }
  }
}

struct TokenHolder {
  std::shared_ptr<int> token;
};

Coro HoldThroughRepeats(std::shared_ptr<int> token, TimeNs ns, int64_t n) {
  const TokenHolder hold{std::move(token)};
  co_await Delay{ns, n};
  co_await Delay{ns, n};
}

// Repeats still queued at teardown own nothing: the suspended frames that
// hold their awaiters are destroyed once, with the simulator's live roots.
TEST(SimCore, TeardownWithQueuedRepeatsDestroysEachFrameOnce) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    for (int i = 0; i < 20; ++i) {
      sim.Spawn(HoldThroughRepeats(token, 3 + i % 4, 4 + i % 5));
    }
    sim.At(9, [] { throw Error("stop"); });
    EXPECT_EQ(token.use_count(), 21);
    EXPECT_THROW(sim.Run(), Error);
    EXPECT_EQ(token.use_count(), 21);  // every root still suspended
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Waves still queued at teardown own nothing either: each lockstep frame,
// queued inside a wave or split back out of one, is destroyed once.
TEST(SimCore, TeardownWithQueuedWavesDestroysEachFrameOnce) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    for (int i = 0; i < 30; ++i) {
      sim.Spawn(HoldThroughRepeats(token, i < 20 ? 5 : 7, i < 10 ? 6 : 3));
    }
    sim.At(12, [] { throw Error("stop"); });
    EXPECT_EQ(token.use_count(), 31);
    EXPECT_THROW(sim.Run(), Error);
    EXPECT_LT(sim.queue_pops(), sim.processed_events());
    EXPECT_EQ(token.use_count(), 31);  // every root still suspended
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Callables queued at teardown — lone events, a run, a reserved sequence
// inside a run, a boxed (over-sized) callable and the rest of a run that
// was draining when Run() threw — are each destroyed exactly once.
TEST(SimCore, TeardownReleasesEachQueuedCallableOnce) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    const uint64_t reserved = sim.ReserveSeq();
    sim.At(5, [token] {});
    for (int i = 0; i < 100; ++i) sim.At(10, [token] {});
    sim.At(10, [] { throw Error("stop"); });
    for (int i = 0; i < 100; ++i) sim.At(10, [token] {});
    sim.AtSeq(10, reserved, [token] {});  // orders before the run's tail
    std::array<uint64_t, 16> big{};
    sim.At(20, [token, big] { (void)big; });
    for (int i = 0; i < 50; ++i) sim.At(30 + i, [token] {});
    EXPECT_EQ(token.use_count(), 1 + 1 + 100 + 100 + 1 + 1 + 50);
    EXPECT_THROW(sim.Run(), Error);
    // Ran: t=5, the reserved one and 100 of the run; the throw stopped it.
    EXPECT_EQ(token.use_count(), 1 + 100 + 1 + 50);
  }
  EXPECT_EQ(token.use_count(), 1);
  {
    Simulator sim;
    for (int i = 0; i < 300; ++i) sim.At(i % 3, [token] {});
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace tilelink::sim
