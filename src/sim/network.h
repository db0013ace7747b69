// Flow-level interconnect model.
//
// Each device exposes one egress port and one ingress port per fabric
// (intra-node NVLink-class, inter-node NIC-class). A transfer is a flow from
// (src egress) to (dst ingress); at any instant a flow's rate is
//   min(egress_bw / flows_on_egress, ingress_bw / flows_on_ingress)
// — a deterministic approximation of max-min fair sharing that captures the
// contention effects that matter for overlap studies: concurrent pulls from
// one producer halve each puller's rate, ring transfers run at full port
// bandwidth, and all-to-all traffic divides ingress bandwidth.
//
// Ports can optionally be split into `rails` (ConfigureRails): each rail
// owns an equal 1/rails share of the port bandwidth, scaled by a per-rail
// health factor in [0, 1], and flows contend only within their rail. With
// the default single healthy rail the arithmetic reduces bitwise to the flat
// model. A FaultPlan (sim/fault.h) can drop or straggle individual transfer
// attempts and kill or degrade rails at a simulated time. `TryTransfer` is
// one attempt and reports delivery instead of throwing. The retransmit
// policy is the fabric's own: `AckTimeout` arms each attempt and
// `FailedAttempt` spends the plan's retry budget. `Transfer` (every
// single send, the fused kernels' device pushes included) and the link
// roles' chunk loop both retry through those two calls.
//
// Rates and completions touch only what a change can affect, once per
// simulated instant:
//  * Port-rail index. A flow's rate depends only on the flow counts and
//    health of its two port-rails, (src egress, rail) and (dst ingress,
//    rail), so live flows are indexed per port-rail. Each port-rail caches
//    its per-flow share, recomputed at once whenever its flow count or
//    health changes, so a re-rate is the min of two cached values.
//  * One re-rate per flow per instant. Adding or removing a flow, or a rail
//    rescale, only marks the port-rails it touched dirty (an intrusive
//    list, no allocation). At the end of the instant (the simulator's
//    end-of-instant hook, after the last event at that time) each flow on
//    a dirty port-rail is re-rated once, however many of its port-rails'
//    joins, leaves and rescales landed in that instant; tile-granularity
//    pushes join and leave a port by the hundred in one nanosecond. This is
//    bitwise the same as re-rating at every change: a same-instant re-rate
//    integrates over dt = 0, so it leaves the remaining bytes unchanged,
//    and the last one alone sets the rate and the completion time.
//  * Progress anchoring. A flow's progress is kept as (remaining bytes, the
//    time they were valid) and integrated, rem -= rate * dt, only when its
//    rate changes. A flow whose recomputed rate is bitwise equal keeps its
//    anchor and its exact completion time now + max(1, ceil(rem / rate)).
//  * One pending completion per flow, on the fabric's own due queue ordered
//    by (time, flow id). A rate drop leaves the entry where it is; when it
//    comes due early it re-arms at the stored exact time. Only a change
//    that moves the completion earlier pushes a new entry.
//  * Exact same-time order. The simulator queue carries one wake-up per due
//    time, tie-broken at the sequence number reserved by the latest flow
//    change: completions run among same-time events exactly where requeuing
//    every live flow's completion at every change would put them. A change
//    landing at the nanosecond a flow is due, before its completion ran,
//    re-anchors that flow with nothing left to move, which by the
//    max(1, ...) above finishes it one nanosecond later.
// Flow slots are recycled; timers and due entries carry the flow id they
// were armed for, so ones outliving their flow are inert.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/fault.h"
#include "sim/flag.h"
#include "sim/simulator.h"

namespace tilelink::sim {

// Per-attempt knobs for TryTransfer.
struct TransferOpts {
  // -1: pick the least-loaded live rail (PickRail), which every library
  // sender takes. A pinned rail is a test seam: tests/test_network.cc pins
  // flows to rails through it.
  int rail = -1;
  TimeNs ack_timeout = 0;  // >0: abandon the attempt after this long
};

// What happened to one attempt.
struct TransferOutcome {
  bool delivered = true;
  bool timed_out = false;
  int rail = 0;
  uint64_t ordinal = 0;  // per-edge attempt ordinal (0 when no plan attached)
};

class Network : private InstantEndHook {
 public:
  // port_bw_gbps is bytes per nanosecond (numerically GB/s); latency_ns is
  // the per-message wire latency added before bytes flow. The simulator
  // must outlive the network.
  Network(Simulator* sim, int num_ports, double port_bw_gbps,
          TimeNs latency_ns, std::string name);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  int num_ports() const { return num_ports_; }
  TimeNs latency() const { return latency_ns_; }
  double port_bandwidth_gbps() const { return port_bw_; }
  const std::string& name() const { return name_; }

  // Coroutine: completes when `bytes` have moved from src's egress port to
  // dst's ingress port. A src==dst transfer models a local HBM-to-HBM copy
  // at local_copy_bw_gbps (no port contention). Failed attempts are
  // retried through FailedAttempt, so exhaustion throws FaultError; with no
  // fault plan perturbing this fabric this is a single attempt.
  Coro Transfer(int src, int dst, uint64_t bytes);

  // One attempt: applies the fault plan's transient fate for this attempt
  // and reports the outcome in *out instead of retrying or throwing.
  // Callers with per-attempt work of their own (the link roles re-probe
  // the checker and trace each attempt) loop over this with AckTimeout and
  // FailedAttempt.
  Coro TryTransfer(int src, int dst, uint64_t bytes, TransferOpts opts,
                   TransferOutcome* out);

  // --- retransmit policy (shared by every retrying sender) ---

  // Ack deadline of one attempt moving `bytes`: kAckTimeoutFactor x
  // ExpectedFlowTime(bytes) when the fault plan perturbs this fabric, else
  // 0 (no deadline).
  TimeNs AckTimeout(uint64_t bytes) const;

  // Settles failed attempt `attempt` (0-based) of chunk `chunk` that
  // `sender` sent from `rank`: throws FaultError once the plan's
  // RetryPolicy budget is spent, else counts the retry and returns the
  // RetryBackoff wait before the next attempt.
  TimeNs FailedAttempt(const std::string& sender, int rank, int64_t chunk,
                       int attempt, bool timed_out);

  // --- rails ---

  // Split every port into `rails` equal-bandwidth rails (requires no active
  // flows). Resets all rail health to 1.
  void ConfigureRails(int rails);
  int rails() const { return rails_; }

  // Scale rail `rail` of `port` (-1: all ports) to `fraction` of its
  // bandwidth share, on both the egress and ingress side. Bumps the rail
  // health generation that traced rail events carry.
  void SetRailScale(int port, int rail, double fraction);
  // Test seams: no library code reads rail health back (senders take
  // PickRail's least-loaded live rail); tests/test_network.cc checks rail
  // health and its generation through these.
  double RailScale(int port, int rail) const;
  uint64_t rail_generation() const { return rail_generation_; }

  // --- faults ---

  // Attach a read-only fault plan (caller keeps it alive). Schedules the
  // plan's rail degrades for this fabric onto the simulator clock.
  void SetFaultPlan(const FaultPlan* plan);
  const FaultPlan* fault_plan() const { return plan_; }
  const FaultStats& fault_stats() const { return stats_; }

  // --- tracing ---

  // Trace process id for this fabric's wire spans, per-rail counters and
  // fault instants (assigned by World::set_trace; -1 keeps the fabric
  // silent even when the simulator has a recorder).
  void set_trace_pid(int pid) { trace_pid_ = pid; }
  int trace_pid() const { return trace_pid_; }

  // Expected serial time of one transfer on a healthy rail, rounded as
  // CostModel rounds a transfer: the ack-timeout basis.
  TimeNs ExpectedFlowTime(uint64_t bytes) const;

  void set_local_copy_bw_gbps(double gbps) { local_copy_bw_ = gbps; }

  // Total bytes ever moved (for tests/diagnostics).
  uint64_t total_bytes() const { return total_bytes_; }
  // Wire flows ever started: attempts that reached the ports.
  uint64_t total_flows() const { return total_flows_; }
  int active_flow_count() const {
    return static_cast<int>(pool_.size() - free_.size());
  }

  // --- hot-path counters (deterministic) ---

  // Completion entries pushed on the due queue: one when a flow starts, one
  // whenever a change moves its completion before its pending entry, and
  // one per entry that came due early and re-armed.
  uint64_t completion_events() const { return completion_events_; }
  // Entries that came due for a flow already retired, completed or timed
  // out, or superseded by an earlier entry.
  uint64_t stale_completions() const { return stale_completions_; }
  // Rate recomputations: flows on the port-rails that flow changes and rail
  // rescales touched, each counted once per instant.
  uint64_t rerated_flows() const { return rerated_flows_; }
  // Wake-ups the simulator fired for this fabric, and those that completed
  // no flow: superseded ones (a queued wake-up is never cancelled, only made
  // inert), deferrals behind same-time events, and ones whose due entries
  // went stale or re-armed later. An empty wake-up is still a simulator
  // event, so a trailing one can move Simulator::Now() past the last
  // completion; makespans read per-rank finish times and never see it.
  uint64_t wakeups() const { return wakeups_; }
  uint64_t empty_wakeups() const { return empty_wakeups_; }

 private:
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

  struct Flow {
    uint64_t id = 0;
    int src = 0;
    int dst = 0;
    int rail = 0;
    uint32_t egress_pos = 0;   // slot in its egress port-rail's flow list
    uint32_t ingress_pos = 0;  // slot in its ingress port-rail's flow list
    double remaining_bytes = 0.0;  // as of last_update
    double rate = 0.0;             // bytes/ns
    TimeNs last_update = 0;
    TimeNs eta = kNever;    // exact completion time under `rate`
    TimeNs armed = kNever;  // time of its pending due-queue entry
    bool live = false;      // the slot holds an active flow
    bool timed_out = false;
    Flag done;
    explicit Flow(Simulator* sim) : done(sim, "flow.done") {}
    double RemainingAt(TimeNs now) const {
      return remaining_bytes - rate * static_cast<double>(now - last_update);
    }
  };

  // One (port, rail) on one side of the fabric: its health, the live flows
  // crossing it, and the rate each of them may take here. Completed flows
  // stay listed, holding their share, until the waiting coroutine retires
  // them. `share` is kept by Reshare whenever `scale` or the flow count
  // changes. A port-rail changed in the current instant is `dirty` and
  // linked into its side's dirty list until the instant's re-rate.
  struct PortRail {
    double scale = 1.0;
    double share = 0.0;  // ShareOf(scale, flows.size())
    std::vector<Flow*> flows;
    PortRail* next_dirty = nullptr;
    bool dirty = false;
  };

  // A pending completion of `flow` at `at`; stale once the slot moved on to
  // another id, the flow finished, or a newer entry re-armed it.
  struct Due {
    TimeNs at;
    uint64_t id;
    Flow* flow;
  };
  struct DueLater {
    bool operator()(const Due& a, const Due& b) const {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };

  // Per-flow rate a port-rail at health `scale` carrying `flows` flows
  // allows: its rail's share of the port, split evenly.
  double ShareOf(double scale, std::size_t flows) const;
  // Recomputes pr.share from its scale and flow count.
  void Reshare(PortRail& pr) const;
  std::size_t Index(int port, int rail) const {
    return static_cast<std::size_t>(port) * rails_ + rail;
  }
  Flow& NewFlow(int src, int dst, uint64_t bytes);
  void AddFlow(Flow& f);
  void RemoveFlow(Flow& f);
  // The simulator's recorder when this fabric is trace-enabled, else null.
  TraceRecorder* Tracer() const {
    return trace_pid_ >= 0 ? sim_->trace() : nullptr;
  }
  // Remaining bytes of the active flows on one rail at Now() (trace only).
  double InflightBytes(int rail) const;
  void TraceRailCounter(int rail);

  // Sets rail `rail`'s health at `port` (-1: every port) on both sides and
  // marks those port-rails for the instant's re-rate.
  void Rescale(int port, int rail, double fraction);
  // Opens a flow change: reserves its tie-break sequence and re-anchors the
  // flows due this very nanosecond whose completion has not run yet.
  void BeginChange();
  // Queues `pr` on `*list` for the end-of-instant re-rate (once).
  void MarkDirty(PortRail& pr, PortRail** list);
  // End of instant: re-rates every flow on a dirty port-rail once, clears
  // the dirty lists and queues the next wake-up.
  void OnInstantEnd() override;
  // Recomputes f's rate. Re-anchors and re-arms only when the rate changed
  // or f is `due` now.
  void Rerate(Flow& f, bool due = false);
  double RateOf(const Flow& f) const;
  // Pushes an entry at f.eta unless an earlier one is pending.
  void Arm(Flow& f);
  bool Stale(const Due& d) const;
  // Drops stale entries due by `now` and re-arms early ones; returns the
  // flow of the first entry completing at `now` (left queued), or null.
  Flow* NextDue(TimeNs now);
  // Queues a wake-up for the earliest entry unless one fires no later.
  void ArmWake();
  void QueueWake(TimeNs at);
  void OnWake(uint64_t token, uint64_t seq);
  // Least-loaded rail alive on both endpoints (tie: lowest index); rail 0
  // when every rail is dead (the flow parks; an ack-timeout recovers it).
  int PickRail(int src, int dst) const;
  void ApplyDegrade(const RailDegrade& d);
  void NoteRetry();

  Simulator* sim_;
  int num_ports_;
  double port_bw_;
  double local_copy_bw_ = 3000.0;  // ~HBM-class local copy
  TimeNs latency_ns_;
  std::string name_;
  int rails_ = 1;
  std::vector<PortRail> egress_;   // by Index(port, rail)
  std::vector<PortRail> ingress_;  // by Index(port, rail)
  PortRail* dirty_egress_ = nullptr;   // changed this instant, LIFO
  PortRail* dirty_ingress_ = nullptr;
  std::vector<std::unique_ptr<Flow>> pool_;  // every slot ever used
  std::vector<Flow*> free_;                  // recycled slots, LIFO
  std::priority_queue<Due, std::vector<Due>, DueLater> due_;
  uint64_t change_seq_ = 0;  // tie-break reserved by the latest flow change
  uint64_t wake_token_ = 0;  // identifies the live wake-up; older are inert
  TimeNs wake_at_ = kNever;  // when the live wake-up fires (kNever: none)
  uint64_t next_flow_id_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t total_flows_ = 0;
  uint64_t completion_events_ = 0;
  uint64_t stale_completions_ = 0;
  uint64_t rerated_flows_ = 0;
  uint64_t wakeups_ = 0;
  uint64_t empty_wakeups_ = 0;
  uint64_t rail_generation_ = 0;
  const FaultPlan* plan_ = nullptr;  // non-owning, read-only
  FaultStats stats_;
  std::vector<uint64_t> edge_ordinal_;  // src * num_ports + dst, plan only
  int trace_pid_ = -1;
};

}  // namespace tilelink::sim
