// One simulated GPU: SM slots (FIFO work distributor), copy engines (DMA),
// a memory pool, and signal storage.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/memory.h"
#include "runtime/signal.h"
#include "sim/machine_spec.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace tilelink::rt {

class Device {
 public:
  Device(sim::Simulator* sim, const sim::MachineSpec* spec, int id,
         ExecMode mode)
      : sim_(sim), spec_(spec), id_(id), mode_(mode), mem_(id),
        sms_(sim, spec->sms_per_device, "dev" + std::to_string(id) + ".sms"),
        copy_engines_(sim, spec->copy_engines_per_device,
                      "dev" + std::to_string(id) + ".ce") {}
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  sim::Simulator* sim() const { return sim_; }
  const sim::MachineSpec& spec() const { return *spec_; }
  ExecMode exec_mode() const { return mode_; }
  bool functional() const { return mode_ == ExecMode::kFunctional; }

  sim::Resource& sms() { return sms_; }
  sim::Resource& copy_engines() { return copy_engines_; }

  Buffer* Alloc(const std::string& name, int64_t num_elems) {
    return mem_.Alloc(name, num_elems, functional());
  }

  SignalSet* AllocSignals(const std::string& name, int count) {
    signals_.push_back(std::make_unique<SignalSet>(
        sim_, spec_, id_, count, "dev" + std::to_string(id_) + "." + name));
    return signals_.back().get();
  }

 private:
  sim::Simulator* sim_;
  const sim::MachineSpec* spec_;
  int id_;
  ExecMode mode_;
  MemPool mem_;
  sim::Resource sms_;
  sim::Resource copy_engines_;
  std::vector<std::unique_ptr<SignalSet>> signals_;
};

}  // namespace tilelink::rt
