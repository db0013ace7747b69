// Counting resource with FIFO admission, used to model SM slots, copy
// engines, and any other unit with finite concurrency. Acquire suspends the
// coroutine until capacity is available; waiters are admitted strictly in
// arrival order (no barging), which models hardware work queues and keeps
// the simulation deterministic.
#pragma once

#include <coroutine>
#include <deque>
#include <string>

#include "common/check.h"
#include "sim/simulator.h"

namespace tilelink::sim {

class Resource {
 public:
  Resource(Simulator* sim, int capacity, std::string name)
      : sim_(sim), capacity_(capacity), available_(capacity),
        name_(std::move(name)) {
    TL_CHECK_GT(capacity, 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  int capacity() const { return capacity_; }
  int available() const { return available_; }
  int in_use() const { return capacity_ - available_; }
  const std::string& name() const { return name_; }

  struct [[nodiscard]] Awaiter {
    Resource* res;
    int n;
    bool await_ready() {
      // FIFO: even if capacity is free, queued waiters go first.
      if (res->waiters_.empty() && res->available_ >= n) {
        res->available_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      res->waiters_.push_back(Waiter{n, h});
      // Lazy description, as Flag::Awaiter: parking builds no string.
      res->sim_->RegisterBlockedDynamic(this, this, &Awaiter::Describe);
    }
    void await_resume() { res->sim_->UnregisterBlocked(this); }

   private:
    static std::string Describe(const void* ctx) {
      return "resource '" + static_cast<const Awaiter*>(ctx)->res->name_ +
             "' acquire";
    }
  };

  // Acquires n units; pair with Release(n).
  Awaiter Acquire(int n = 1) {
    TL_CHECK_LE(n, capacity_);
    return Awaiter{this, n};
  }

  // Returns n units and admits as many queued waiters as now fit.
  void Release(int n = 1) {
    available_ += n;
    TL_CHECK_LE(available_, capacity_);
    while (!waiters_.empty() && waiters_.front().n <= available_) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      available_ -= w.n;
      sim_->ScheduleResume(sim_->Now(), w.h);
    }
  }

 private:
  struct Waiter {
    int n;
    std::coroutine_handle<> h;
  };

  Simulator* sim_;
  int capacity_;
  int available_;
  std::string name_;
  std::deque<Waiter> waiters_;

  friend struct Awaiter;
};

// RAII guard releasing a resource on scope exit (for non-coroutine-suspend
// critical sections inside one coroutine).
class ResourceLease {
 public:
  ResourceLease(Resource& res, int n) : res_(&res), n_(n) {}
  ResourceLease(ResourceLease&& o) noexcept : res_(o.res_), n_(o.n_) {
    o.res_ = nullptr;
  }
  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;
  ResourceLease& operator=(ResourceLease&&) = delete;
  ~ResourceLease() {
    if (res_ != nullptr) res_->Release(n_);
  }

 private:
  Resource* res_;
  int n_;
};

}  // namespace tilelink::sim
