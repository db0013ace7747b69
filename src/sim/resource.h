// Counting resource with FIFO admission, used to model SM slots, copy
// engines, and any other unit with finite concurrency. Acquire suspends the
// coroutine until capacity is available; waiters are admitted strictly in
// arrival order (no barging), which models hardware work queues and keeps
// the simulation deterministic.
#pragma once

#include <coroutine>
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

  struct [[nodiscard]] Awaiter : BlockedNode {
    Awaiter(Resource* r, int units)
        : BlockedNode(&Awaiter::Describe), res(r), n(units) {}
    Resource* res;
    int n;
    bool await_ready() {
      // FIFO: even if capacity is free, queued waiters go first.
      if (res->head_ == nullptr && res->available_ >= n) {
        res->available_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      if (res->tail_ == nullptr) {
        res->head_ = this;
      } else {
        res->tail_->next_waiter = this;
      }
      res->tail_ = this;
      res->sim_->Park(*this);
    }
    void await_resume() { Unpark(); }

   private:
    friend class Resource;
    static std::string Describe(const BlockedNode& node) {
      return "resource '" + static_cast<const Awaiter&>(node).res->name_ +
             "' acquire";
    }
    // Admission queue link: parked awaiters form the resource's FIFO.
    std::coroutine_handle<> handle;
    Awaiter* next_waiter = nullptr;
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
    while (head_ != nullptr && head_->n <= available_) {
      Awaiter* w = head_;
      head_ = w->next_waiter;
      if (head_ == nullptr) tail_ = nullptr;
      available_ -= w->n;
      sim_->ScheduleResume(sim_->Now(), w->handle);
    }
  }

 private:
  Simulator* sim_;
  int capacity_;
  int available_;
  std::string name_;
  // FIFO of parked awaiters, threaded through the awaiters themselves.
  Awaiter* head_ = nullptr;
  Awaiter* tail_ = nullptr;

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
