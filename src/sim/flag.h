// Monotonic 64-bit signal flags with waiter lists — the simulator-level
// mechanism under runtime::SignalSet (device barrier words manipulated by
// red.release / polled by ld.global.acquire in the paper's lowered code).
//
// Flags only grow (Set takes max, Add accumulates); waiters wake when the
// value first reaches their threshold. Visibility latency of a remote write
// is modeled by the caller scheduling Set/Add at a later simulated time.
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace tilelink::sim {

class Flag {
 public:
  Flag(Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {}
  Flag(Flag&&) = default;
  Flag(const Flag&) = delete;
  Flag& operator=(const Flag&) = delete;

  uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }
  Simulator* sim() const { return sim_; }

  // Raises the flag to at least v (monotonic store, release semantics are
  // the caller's responsibility via scheduling order).
  void Set(uint64_t v) {
    if (v > value_) {
      value_ = v;
      WakeSatisfied();
    }
  }

  // Atomically adds d (models red.global.add).
  void Add(uint64_t d) {
    value_ += d;
    WakeSatisfied();
  }

  void Reset() { value_ = 0; }  // only valid when no waiters are parked

  struct [[nodiscard]] Awaiter : BlockedNode {
    Awaiter(Flag* f, uint64_t t)
        : BlockedNode(&Awaiter::Describe), flag(f), threshold(t) {}
    Flag* flag;
    uint64_t threshold;
    bool await_ready() const { return flag->value_ >= threshold; }
    void await_suspend(std::coroutine_handle<> h) {
      flag->waiters_.push_back(Waiter{threshold, h});
      flag->sim_->Park(*this);
    }
    void await_resume() { Unpark(); }

   private:
    static std::string Describe(const BlockedNode& node) {
      const Awaiter& a = static_cast<const Awaiter&>(node);
      return "flag '" + a.flag->name_ + "' wait >= " +
             std::to_string(a.threshold) + " (last published value " +
             std::to_string(a.flag->value_) + ")";
    }
  };

  // Suspends until value() >= threshold (acquire side of the barrier).
  Awaiter WaitGe(uint64_t threshold) { return Awaiter{this, threshold}; }

  size_t num_waiters() const { return waiters_.size(); }

 private:
  struct Waiter {
    uint64_t threshold;
    std::coroutine_handle<> h;
  };

  void WakeSatisfied() {
    // Stable in-place sweep: wake in arrival order for determinism and keep
    // the rest in arrival order, without allocating.
    std::size_t kept = 0;
    for (const Waiter& w : waiters_) {
      if (value_ >= w.threshold) {
        sim_->ScheduleResume(sim_->Now(), w.h);
      } else {
        waiters_[kept++] = w;
      }
    }
    waiters_.resize(kept);
  }

  Simulator* sim_;
  uint64_t value_ = 0;
  std::string name_;
  std::vector<Waiter> waiters_;

  friend struct Awaiter;
};

}  // namespace tilelink::sim
