// Device-resident signal sets: the simulated analog of the barrier words that
// TileLink's lowered code manipulates with red.release / polls with
// ld.global.acquire (paper §3.2.1, §4.2).
//
// A SignalSet lives on one device. Writes from a peer rank become visible
// after the remote visibility latency; writes from the local rank after the
// (much smaller) local latency. Release semantics are the caller's contract:
// primitives only issue Set/Add after the producing stores' completion
// events, which the TileLink lowering enforces and the ConsistencyChecker
// audits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/flag.h"
#include "sim/machine_spec.h"
#include "sim/simulator.h"

namespace tilelink::rt {

class SignalSet {
 public:
  SignalSet(sim::Simulator* sim, const sim::MachineSpec* spec, int device,
            int count, std::string name)
      : sim_(sim), spec_(spec), device_(device), name_(std::move(name)) {
    TL_CHECK_GT(count, 0);
    flags_.reserve(count);
    for (int i = 0; i < count; ++i) {
      flags_.push_back(std::make_unique<sim::Flag>(
          sim, name_ + "[" + std::to_string(i) + "]"));
    }
  }
  SignalSet(const SignalSet&) = delete;
  SignalSet& operator=(const SignalSet&) = delete;

  int device() const { return device_; }
  int count() const { return static_cast<int>(flags_.size()); }
  uint64_t value(int idx) const { return flag(idx).value(); }

  // Raises flag idx to at least v, issued by from_rank. Visibility is
  // delayed by the fabric's signal latency when from_rank is remote.
  void SetFrom(int from_rank, int idx, uint64_t v) {
    sim::Flag* f = &flag(idx);
    sim_->After(SignalLatency(from_rank), [f, v] { f->Set(v); });
  }

  // Atomically adds d to flag idx (models red.global.add.release).
  void AddFrom(int from_rank, int idx, uint64_t d) {
    sim::Flag* f = &flag(idx);
    sim_->After(SignalLatency(from_rank), [f, d] { f->Add(d); });
  }

  // Acquire-side wait: suspends until flag idx >= threshold.
  sim::Flag::Awaiter Wait(int idx, uint64_t threshold) {
    return flag(idx).WaitGe(threshold);
  }

  sim::TimeNs SignalLatency(int from_rank) const {
    return from_rank == device_ ? spec_->local_signal_latency
                                : spec_->signal_visibility_latency;
  }

 private:
  sim::Flag& flag(int idx) {
    TL_CHECK_GE(idx, 0);
    TL_CHECK_LT(idx, count());
    return *flags_[idx];
  }
  const sim::Flag& flag(int idx) const {
    TL_CHECK_GE(idx, 0);
    TL_CHECK_LT(idx, count());
    return *flags_[idx];
  }

  sim::Simulator* sim_;
  const sim::MachineSpec* spec_;
  int device_;
  std::string name_;
  std::vector<std::unique_ptr<sim::Flag>> flags_;
};

}  // namespace tilelink::rt
