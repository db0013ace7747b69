#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/trace.h"

namespace tilelink::sim {

namespace {

std::string RailLane(int rail) { return "rail" + std::to_string(rail); }

// When `remaining` bytes at `rate` finish, counted from `now`: at least one
// nanosecond out, so a completion never lands on the change that set it.
TimeNs CompletionTime(TimeNs now, double remaining, double rate) {
  return now + std::max<TimeNs>(
                   1, static_cast<TimeNs>(std::ceil(remaining / rate)));
}

}  // namespace

void Network::NoteRetry() {
  stats_.retries++;
  if (TraceRecorder* t = Tracer()) {
    t->AddInstant(trace_pid_, t->Track(trace_pid_, "faults"), "fault.retry",
                  sim_->Now(),
                  {TraceArg::Num("retries", static_cast<double>(stats_.retries))});
  }
}

double Network::InflightBytes(int rail) const {
  // Anchors of flows whose rate held are stale: project each to Now(). Every
  // flow of the rail sits in exactly one egress list.
  const TimeNs now = sim_->Now();
  double sum = 0;
  for (int p = 0; p < num_ports_; ++p) {
    for (const Flow* f : egress_[Index(p, rail)].flows) {
      if (f->done.value() == 0) sum += std::max(f->RemainingAt(now), 0.0);
    }
  }
  return sum;
}

void Network::TraceRailCounter(int rail) {
  if (TraceRecorder* t = Tracer()) {
    t->AddCounter(trace_pid_, name_ + ".inflight_bytes", RailLane(rail),
                  sim_->Now(), InflightBytes(rail));
  }
}

Network::Network(Simulator* sim, int num_ports, double port_bw_gbps,
                 TimeNs latency_ns, std::string name)
    : sim_(sim), num_ports_(num_ports), port_bw_(port_bw_gbps),
      latency_ns_(latency_ns), name_(std::move(name)) {
  TL_CHECK_GT(num_ports, 0);
  TL_CHECK_GT(port_bw_gbps, 0.0);
  ConfigureRails(1);
}

Network::~Network() {
  if (instant_end_queued()) sim_->CancelInstantEnd(*this);
}

void Network::ConfigureRails(int rails) {
  TL_CHECK_GT(rails, 0);
  TL_CHECK_EQ(active_flow_count(), 0);
  rails_ = rails;
  // The last leaves may still be queued for this instant's re-rate; with no
  // flow left there is nothing to re-rate.
  dirty_egress_ = dirty_ingress_ = nullptr;
  PortRail idle;
  Reshare(idle);
  const std::size_t port_rails = static_cast<std::size_t>(num_ports_) * rails;
  egress_.assign(port_rails, idle);
  ingress_.assign(port_rails, idle);
}

double Network::ShareOf(double scale, std::size_t flows) const {
  // With one healthy rail this is bitwise the flat bw/flows share.
  const double share = port_bw_ / rails_;
  return share * scale /
         static_cast<double>(std::max<std::size_t>(1, flows));
}

void Network::Reshare(PortRail& pr) const {
  pr.share = ShareOf(pr.scale, pr.flows.size());
}

void Network::SetRailScale(int port, int rail, double fraction) {
  TL_CHECK_GE(rail, 0);
  TL_CHECK_LT(rail, rails_);
  TL_CHECK_GE(fraction, 0.0);
  TL_CHECK_LT(port, num_ports());
  Rescale(port, rail, fraction);
  if (TraceRecorder* t = Tracer()) {
    t->AddCounter(trace_pid_, name_ + ".rail_health", RailLane(rail),
                  sim_->Now(), fraction);
    t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(rail)),
                  "rail_generation", sim_->Now(),
                  {TraceArg::Num("generation",
                                 static_cast<double>(rail_generation_)),
                   TraceArg::Num("port", port),
                   TraceArg::Num("fraction", fraction)});
  }
}

double Network::RailScale(int port, int rail) const {
  TL_CHECK_GE(port, 0);
  TL_CHECK_LT(port, num_ports());
  TL_CHECK_GE(rail, 0);
  TL_CHECK_LT(rail, rails_);
  return egress_[Index(port, rail)].scale;
}

void Network::SetFaultPlan(const FaultPlan* plan) {
  plan_ = plan;
  if (plan == nullptr) return;
  edge_ordinal_.assign(
      static_cast<std::size_t>(num_ports()) * num_ports(), 0);
  for (const RailDegrade& d : plan->degrades()) {
    if (d.fabric != name_) continue;
    TL_CHECK_LT(d.rail, rails_);
    const TimeNs when = std::max(sim_->Now(), d.at);
    sim_->At(when, [this, d] { ApplyDegrade(d); });
  }
}

void Network::ApplyDegrade(const RailDegrade& d) {
  Rescale(d.port, d.rail, d.fraction);
  if (TraceRecorder* t = Tracer()) {
    t->AddCounter(trace_pid_, name_ + ".rail_health", RailLane(d.rail),
                  sim_->Now(), d.fraction);
    t->AddInstant(
        trace_pid_, t->Track(trace_pid_, RailLane(d.rail)),
        d.fraction <= 0.0 ? "fault.rail_death" : "fault.rail_degrade",
        sim_->Now(),
        {TraceArg::Num("generation", static_cast<double>(rail_generation_)),
         TraceArg::Num("port", d.port),
         TraceArg::Num("fraction", d.fraction)});
  }
}

void Network::Rescale(int port, int rail, double fraction) {
  const int lo = port < 0 ? 0 : port;
  const int hi = port < 0 ? num_ports_ : port + 1;
  for (int p = lo; p < hi; ++p) {
    for (std::vector<PortRail>* side : {&egress_, &ingress_}) {
      PortRail& pr = (*side)[Index(p, rail)];
      pr.scale = fraction;
      Reshare(pr);
    }
  }
  rail_generation_++;
  BeginChange();
  for (int p = lo; p < hi; ++p) {
    MarkDirty(egress_[Index(p, rail)], &dirty_egress_);
    // Rescaling every port, the egress lists already cover the rail.
    if (port >= 0) MarkDirty(ingress_[Index(p, rail)], &dirty_ingress_);
  }
}

TimeNs Network::ExpectedFlowTime(uint64_t bytes) const {
  // One rail's serial share, rails_ x the bytes-over-port time, rounded as
  // the cost model rounds a transfer.
  const double t =
      static_cast<double>(bytes * static_cast<uint64_t>(rails_)) / port_bw_;
  return latency_ns_ +
         std::max<TimeNs>(1, static_cast<TimeNs>(std::llround(t)));
}

TimeNs Network::AckTimeout(uint64_t bytes) const {
  if (plan_ == nullptr || !plan_->PerturbsFabric(name_)) return 0;
  return static_cast<TimeNs>(kAckTimeoutFactor *
                             static_cast<double>(ExpectedFlowTime(bytes)));
}

TimeNs Network::FailedAttempt(const std::string& sender, int rank,
                              int64_t chunk, int attempt, bool timed_out) {
  TL_CHECK(plan_ != nullptr);
  const RetryPolicy& rp = plan_->retry();
  if (attempt >= rp.max_retries) {
    throw FaultError(sender, rank, chunk, attempt + 1,
                     timed_out ? "ack timeout" : "chunk dropped");
  }
  NoteRetry();
  return RetryBackoff(rp.backoff_base, latency_ns_, attempt);
}

int Network::PickRail(int src, int dst) const {
  int best = -1;
  std::size_t best_load = 0;
  for (int r = 0; r < rails_; ++r) {
    const PortRail& eg = egress_[Index(src, r)];
    const PortRail& in = ingress_[Index(dst, r)];
    if (eg.scale <= 0.0 || in.scale <= 0.0) continue;
    const std::size_t load = eg.flows.size() + in.flows.size();
    if (best < 0 || load < best_load) {
      best = r;
      best_load = load;
    }
  }
  return best < 0 ? 0 : best;
}

Coro Network::Transfer(int src, int dst, uint64_t bytes) {
  TransferOpts opts;
  opts.ack_timeout = AckTimeout(bytes);
  for (int attempt = 0;; ++attempt) {
    TransferOutcome out;
    co_await TryTransfer(src, dst, bytes, opts, &out);
    if (out.delivered) co_return;
    co_await Delay{FailedAttempt(name_ + ".transfer", src,
                                 static_cast<int64_t>(out.ordinal), attempt,
                                 out.timed_out)};
  }
}

Coro Network::TryTransfer(int src, int dst, uint64_t bytes, TransferOpts opts,
                          TransferOutcome* out) {
  TL_CHECK_GE(src, 0);
  TL_CHECK_LT(src, num_ports());
  TL_CHECK_GE(dst, 0);
  TL_CHECK_LT(dst, num_ports());
  TL_CHECK(out != nullptr);
  *out = TransferOutcome{};
  total_bytes_ += bytes;
  if (bytes == 0) {
    co_await Delay{latency_ns_};
    co_return;
  }
  if (src == dst) {
    // Local copy: no fabric contention, HBM-class bandwidth, no faults.
    TimeNs t = static_cast<TimeNs>(
        std::ceil(static_cast<double>(bytes) / local_copy_bw_));
    co_await Delay{latency_ns_ + t};
    co_return;
  }
  TransientFault fate;
  if (plan_ != nullptr) {
    uint64_t& ord = edge_ordinal_[static_cast<std::size_t>(src) * num_ports() +
                                  dst];
    out->ordinal = ord++;
    fate = plan_->OnTransfer(name_, src, dst, out->ordinal);
  }
  const TimeNs start = sim_->Now();
  co_await Delay{latency_ns_};
  Flow& flow = NewFlow(src, dst, bytes);
  flow.rail = opts.rail >= 0 ? opts.rail : PickRail(src, dst);
  TL_CHECK_LT(flow.rail, rails_);
  out->rail = flow.rail;
  if (opts.ack_timeout > 0) {
    // The slot may hold a later flow by then: the timer checks its flow id.
    sim_->At(sim_->Now() + opts.ack_timeout, [this, f = &flow, id = flow.id] {
      if (!f->live || f->id != id) return;
      if (f->done.value() > 0) return;  // completed, awaiting pickup
      f->timed_out = true;
      stats_.timeouts++;
      if (TraceRecorder* t = Tracer()) {
        t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(f->rail)),
                      "fault.timeout", sim_->Now(),
                      {TraceArg::Num("src", f->src),
                       TraceArg::Num("dst", f->dst),
                       TraceArg::Num("rail", f->rail)});
      }
      f->done.Set(1);
    });
  }
  AddFlow(flow);
  const TimeNs wire_start = sim_->Now();
  co_await flow.done.WaitGe(1);
  const bool timed_out = flow.timed_out;
  const int rail_used = flow.rail;
  RemoveFlow(flow);
  if (TraceRecorder* t = Tracer()) {
    t->AddSpan(trace_pid_, t->Track(trace_pid_, RailLane(rail_used)),
               name_ + ".xfer", wire_start, sim_->Now(), kCatWire,
               {TraceArg::Num("bytes", static_cast<double>(bytes)),
                TraceArg::Num("src", src), TraceArg::Num("dst", dst),
                TraceArg::Num("rail", rail_used),
                TraceArg::Num("delivered", timed_out ? 0 : 1)});
  }
  if (timed_out) {
    out->delivered = false;
    out->timed_out = true;
    co_return;
  }
  if (fate.latency_mult > 1.0) {
    // Straggler: bill the extra fraction of the observed duration.
    const double elapsed = static_cast<double>(sim_->Now() - start);
    stats_.spikes++;
    if (TraceRecorder* t = Tracer()) {
      t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(rail_used)),
                    "fault.spike", sim_->Now(),
                    {TraceArg::Num("src", src), TraceArg::Num("dst", dst),
                     TraceArg::Num("latency_mult", fate.latency_mult)});
    }
    co_await Delay{static_cast<TimeNs>(
        std::ceil((fate.latency_mult - 1.0) * elapsed))};
  }
  if (fate.drop) {
    // Wire time was billed, but delivery failed.
    stats_.drops++;
    if (TraceRecorder* t = Tracer()) {
      t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(rail_used)),
                    "fault.drop", sim_->Now(),
                    {TraceArg::Num("src", src), TraceArg::Num("dst", dst),
                     TraceArg::Num("rail", rail_used)});
    }
    out->delivered = false;
  }
}

Network::Flow& Network::NewFlow(int src, int dst, uint64_t bytes) {
  if (free_.empty()) {
    pool_.push_back(std::make_unique<Flow>(sim_));
    free_.push_back(pool_.back().get());
  }
  Flow& f = *free_.back();
  free_.pop_back();
  f.id = next_flow_id_++;
  f.src = src;
  f.dst = dst;
  f.rail = 0;
  f.remaining_bytes = static_cast<double>(bytes);
  f.rate = 0.0;
  f.last_update = sim_->Now();
  f.eta = kNever;
  f.armed = kNever;
  f.live = true;
  f.timed_out = false;
  f.done.Reset();
  total_flows_++;
  return f;
}

void Network::AddFlow(Flow& f) {
  PortRail& eg = egress_[Index(f.src, f.rail)];
  PortRail& in = ingress_[Index(f.dst, f.rail)];
  f.egress_pos = static_cast<uint32_t>(eg.flows.size());
  eg.flows.push_back(&f);
  f.ingress_pos = static_cast<uint32_t>(in.flows.size());
  in.flows.push_back(&f);
  Reshare(eg);
  Reshare(in);
  BeginChange();
  MarkDirty(eg, &dirty_egress_);
  MarkDirty(in, &dirty_ingress_);
  TraceRailCounter(f.rail);
}

void Network::RemoveFlow(Flow& f) {
  // Swap-and-pop keeps both lists dense; the moved flow learns its slot.
  auto unlink = [&f](std::vector<Flow*>& flows, uint32_t Flow::*pos) {
    Flow* last = flows.back();
    flows[f.*pos] = last;
    last->*pos = f.*pos;
    flows.pop_back();
  };
  PortRail& eg = egress_[Index(f.src, f.rail)];
  PortRail& in = ingress_[Index(f.dst, f.rail)];
  unlink(eg.flows, &Flow::egress_pos);
  unlink(in.flows, &Flow::ingress_pos);
  Reshare(eg);
  Reshare(in);
  f.live = false;
  free_.push_back(&f);
  BeginChange();
  MarkDirty(eg, &dirty_egress_);
  MarkDirty(in, &dirty_ingress_);
  TraceRailCounter(f.rail);
}

void Network::MarkDirty(PortRail& pr, PortRail** list) {
  if (pr.dirty) return;
  pr.dirty = true;
  pr.next_dirty = *list;
  *list = &pr;
  sim_->AtInstantEnd(*this);
}

void Network::OnInstantEnd() {
  // A flow on a dirty egress port-rail is re-rated there; the ingress pass
  // skips it, so each flow is re-rated once. Flags clear only after both
  // passes, since the ingress pass reads the egress flags.
  for (PortRail* pr = dirty_egress_; pr != nullptr; pr = pr->next_dirty) {
    for (Flow* f : pr->flows) Rerate(*f);
  }
  for (PortRail* pr = dirty_ingress_; pr != nullptr; pr = pr->next_dirty) {
    for (Flow* f : pr->flows) {
      if (!egress_[Index(f->src, f->rail)].dirty) Rerate(*f);
    }
  }
  for (PortRail** list : {&dirty_egress_, &dirty_ingress_}) {
    while (PortRail* pr = *list) {
      *list = pr->next_dirty;
      pr->next_dirty = nullptr;
      pr->dirty = false;
    }
  }
  ArmWake();
}

void Network::BeginChange() {
  change_seq_ = sim_->ReserveSeq();
  const TimeNs now = sim_->Now();
  while (Flow* f = NextDue(now)) {
    due_.pop();
    f->armed = kNever;
    Rerate(*f, /*due=*/true);
  }
}

void Network::Rerate(Flow& f, bool due) {
  if (f.done.value() > 0) return;  // completed or timed out, awaiting pickup
  rerated_flows_++;
  const double rate = RateOf(f);
  if (rate == f.rate && !due) return;
  const TimeNs now = sim_->Now();
  f.remaining_bytes = std::max(f.RemainingAt(now), 0.0);
  f.last_update = now;
  f.rate = rate;
  // A dead rail parks the flow until a rescale or its ack timeout.
  f.eta = rate > 0.0 ? CompletionTime(now, f.remaining_bytes, rate) : kNever;
  Arm(f);
}

double Network::RateOf(const Flow& f) const {
  const PortRail& eg = egress_[Index(f.src, f.rail)];
  const PortRail& in = ingress_[Index(f.dst, f.rail)];
  TL_DCHECK(std::bit_cast<uint64_t>(eg.share) ==
            std::bit_cast<uint64_t>(ShareOf(eg.scale, eg.flows.size())));
  TL_DCHECK(std::bit_cast<uint64_t>(in.share) ==
            std::bit_cast<uint64_t>(ShareOf(in.scale, in.flows.size())));
  return std::min(eg.share, in.share);
}

void Network::Arm(Flow& f) {
  if (f.eta >= f.armed) return;  // the pending entry re-arms when it fires
  f.armed = f.eta;
  due_.push(Due{f.eta, f.id, &f});
  completion_events_++;
}

bool Network::Stale(const Due& d) const {
  const Flow& f = *d.flow;
  return !f.live || f.id != d.id || f.done.value() > 0 || f.armed != d.at;
}

Network::Flow* Network::NextDue(TimeNs now) {
  while (!due_.empty() && due_.top().at <= now) {
    const Due d = due_.top();
    if (Stale(d)) {
      due_.pop();
      stale_completions_++;
      continue;
    }
    Flow* f = d.flow;
    if (f->eta == d.at) return f;
    // Armed before a rate drop: move on to the exact completion time.
    due_.pop();
    f->armed = kNever;
    Arm(*f);
  }
  return nullptr;
}

void Network::ArmWake() {
  while (!due_.empty() && Stale(due_.top())) {
    due_.pop();
    stale_completions_++;
  }
  if (due_.empty() || wake_at_ <= due_.top().at) return;
  QueueWake(due_.top().at);
}

void Network::QueueWake(TimeNs at) {
  wake_at_ = at;
  const uint64_t token = ++wake_token_;
  const uint64_t seq = change_seq_;
  sim_->AtSeq(at, seq, [this, token, seq] { OnWake(token, seq); });
}

void Network::OnWake(uint64_t token, uint64_t seq) {
  wakeups_++;
  if (token != wake_token_) {  // an earlier wake-up superseded it
    empty_wakeups_++;
    return;
  }
  wake_at_ = kNever;
  const TimeNs now = sim_->Now();
  if (NextDue(now) != nullptr && seq != change_seq_ &&
      sim_->HasEventBefore(now, change_seq_)) {
    // A flow change since this wake-up was queued moved the completions
    // behind the events queued in between: let those run first.
    empty_wakeups_++;
    QueueWake(now);
    return;
  }
  bool completed = false;
  while (Flow* f = NextDue(now)) {
    due_.pop();
    f->armed = kNever;
    f->remaining_bytes = f->RemainingAt(now);
    f->last_update = now;
    if (f->remaining_bytes <= 0.5) {
      f->remaining_bytes = 0.0;
      // The waiting coroutine wakes at this same timestamp and calls
      // RemoveFlow, which frees the ports and re-rates; the port is "busy"
      // for zero simulated time after completion.
      f->done.Set(1);
      completed = true;
    } else {
      f->eta = CompletionTime(now, f->remaining_bytes, f->rate);
      Arm(*f);
    }
  }
  if (!completed) empty_wakeups_++;
  ArmWake();
}

}  // namespace tilelink::sim
