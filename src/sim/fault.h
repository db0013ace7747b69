// Deterministic fault injection for the simulated fabrics.
//
// A FaultPlan is a seeded, schedule-based description of everything that can
// go wrong on a fabric: transient chunk-send failures (the flow completes on
// the wire but delivery is marked failed), latency spikes (a straggler flow
// is billed a multiplier of its observed duration), persistent rail
// degradation or death (a rail's share of port bandwidth drops to a fraction,
// or to zero, at simulated time T), and the PR 4 rail-reorder bug (a chunk
// whose ready-signal is published before its payload lands). The plan is
// attached to a `sim::Network` (usually via `rt::World::set_fault_plan`), so
// collectives, fused kernels, and raw p2p all see the same fault surface:
// one attempt (`Network::TryTransfer`) and one retransmit policy
// (`Network::AckTimeout` / `Network::FailedAttempt`).
//
// Determinism: a plan is immutable once attached and holds no RNG state.
// Random transients are pure hashes of (seed, fabric, src, dst, ordinal), so
// identical seeds replay identical fault timelines — including across the
// Autotuner's worker threads, where each worker's World keeps its own
// per-edge ordinal counters and shares the plan read-only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/time.h"

namespace tilelink::sim {

// Raised by Network::FailedAttempt when a send exhausts its retransmit
// budget: a single Transfer (role "<fabric>.transfer", chunk = the edge's
// attempt ordinal) or a link stream's chunk (role = the stream's name).
// Names the failing role, rank, and chunk so a fault surfaces as a
// diagnosis instead of a bare deadlock.
class FaultError : public Error {
 public:
  FaultError(std::string role, int rank, int64_t chunk, int attempts,
             const std::string& cause)
      : Error("fault: role '" + role + "' rank " + std::to_string(rank) +
              " chunk " + std::to_string(chunk) + " gave up after " +
              std::to_string(attempts) + " attempt" +
              (attempts == 1 ? "" : "s") + " (" + cause + ")"),
        role_(std::move(role)),
        rank_(rank),
        chunk_(chunk),
        attempts_(attempts) {}

  const std::string& role() const { return role_; }
  int rank() const { return rank_; }
  int64_t chunk() const { return chunk_; }
  int attempts() const { return attempts_; }

 private:
  std::string role_;
  int rank_;
  int64_t chunk_;
  int attempts_;
};

// What a single transfer attempt suffers.
struct TransientFault {
  bool drop = false;          // wire time is billed but delivery fails
  double latency_mult = 1.0;  // >1: straggler; observed duration is scaled
  bool active() const { return drop || latency_mult > 1.0; }
};

// A persistent change to one rail's health, applied at simulated time `at`
// and never reverted. fraction=0 kills the rail outright.
struct RailDegrade {
  std::string fabric;
  int port = -1;  // -1: every port on the fabric
  int rail = 0;
  TimeNs at = 0;
  double fraction = 0.0;  // surviving share of the rail's bandwidth
};

// Retransmit budget Network::FailedAttempt spends. backoff_base=0 means
// "use the fabric's wire latency".
struct RetryPolicy {
  int max_retries = 4;
  TimeNs backoff_base = 0;
};

// Scales Network::ExpectedFlowTime into the fabric's ack deadline
// (Network::AckTimeout); deliberately generous so ordinary max-min
// contention does not masquerade as loss.
inline constexpr double kAckTimeoutFactor = 16.0;

// Simulated wait after failed attempt `attempt` (0-based): exponential
// from `base`, or from the fabric's wire latency (at least 1 ns) when base
// is 0, doubling per attempt up to 2^10. Network::FailedAttempt bills it.
inline TimeNs RetryBackoff(TimeNs base, TimeNs wire_latency, int attempt) {
  const TimeNs unit = base > 0 ? base : std::max<TimeNs>(1, wire_latency);
  return unit << std::min(attempt, 10);
}

// Aggregated per-network fault counters (diagnostics; surfaced in the fault
// sweep's JSON report).
struct FaultStats {
  uint64_t drops = 0;     // attempts whose delivery was marked failed
  uint64_t spikes = 0;    // attempts billed a latency multiplier
  uint64_t timeouts = 0;  // attempts abandoned by the ack deadline
  uint64_t retries = 0;   // retransmissions issued after a failed attempt
  FaultStats& operator+=(const FaultStats& o) {
    drops += o.drops;
    spikes += o.spikes;
    timeouts += o.timeouts;
    retries += o.retries;
    return *this;
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- schedule construction (before attachment) ---

  // Fail delivery of the ordinal-th transfer on edge (src, dst) of `fabric`.
  // Ordinals count per directed edge, so a retry of a dropped chunk carries
  // the next ordinal and is not re-dropped by the same entry.
  FaultPlan& DropTransfer(std::string fabric, int src, int dst,
                          uint64_t ordinal);

  // Bill the ordinal-th transfer on edge (src, dst) `mult`x its duration.
  FaultPlan& SpikeTransfer(std::string fabric, int src, int dst,
                           uint64_t ordinal, double mult);

  // Seeded random mix: every transfer on `fabric` independently drops with
  // drop_prob and spikes with spike_prob (by spike_mult), decided by a pure
  // hash of (seed, fabric, src, dst, ordinal).
  FaultPlan& RandomTransients(std::string fabric, uint64_t seed,
                              double drop_prob, double spike_prob,
                              double spike_mult);

  // At simulated time `at`, scale rail `rail` of `port` (-1: all ports) on
  // `fabric` to `fraction` of its bandwidth share. fraction=0 is rail death.
  FaultPlan& DegradeRail(std::string fabric, int port, int rail, TimeNs at,
                         double fraction);

  // §4.2 ordering fault, the collective analog of
  // CompilerOptions::unsafe_reorder: sender `src_rank` publishes the
  // ready-signal for rail chunk `chunk` of its first rail exchange when
  // the send starts instead of when the payload lands. Downstream
  // consumers then read mid-flight, and in payload mode the
  // ConsistencyChecker must report the race.
  FaultPlan& ReorderRailChunk(int src_rank, int64_t chunk);

  FaultPlan& set_retry(RetryPolicy p) {
    retry_ = p;
    return *this;
  }

  // --- queries (read-only; thread-safe once construction stops) ---

  // The transient fate of one attempt. Targeted entries compose with random
  // mixes (a targeted drop plus a random spike both apply).
  TransientFault OnTransfer(const std::string& fabric, int src, int dst,
                            uint64_t ordinal) const;

  bool IsRailReorder(int src_rank, int64_t chunk) const;

  // True if the plan can change timing on `fabric` (targeted or random
  // transients, or rail degrades). Reorder-only plans return false: they
  // corrupt ordering, never timing.
  bool PerturbsFabric(const std::string& fabric) const;

  bool HasTransients(const std::string& fabric) const;

  const std::vector<RailDegrade>& degrades() const { return degrades_; }
  const RetryPolicy& retry() const { return retry_; }
  bool empty() const {
    return targeted_.empty() && random_.empty() && degrades_.empty() &&
           reorders_.empty();
  }

 private:
  struct Targeted {
    std::string fabric;
    int src;
    int dst;
    uint64_t ordinal;
    bool drop;
    double mult;
  };
  struct RandomMix {
    std::string fabric;
    uint64_t seed;
    double drop_prob;
    double spike_prob;
    double spike_mult;
  };
  struct Reorder {
    int src_rank;
    int64_t chunk;
  };

  std::vector<Targeted> targeted_;
  std::vector<RandomMix> random_;
  std::vector<RailDegrade> degrades_;
  std::vector<Reorder> reorders_;
  RetryPolicy retry_;
};

}  // namespace tilelink::sim
