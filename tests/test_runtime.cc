// Tests for the runtime layer: streams order ops, kernel launches respect SM
// capacity (wave quantization), signals obey visibility latency, the
// consistency checker flags in-flight reads (and its bucket index reports
// exactly what a linear scan does), barriers rendezvous.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/stream.h"
#include "runtime/world.h"
#include "tensor/tensor.h"

namespace tilelink::rt {
namespace {

using sim::Coro;
using sim::Delay;
using sim::TimeNs;

TEST(Runtime, StreamExecutesOpsInOrder) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  Stream& stream = *world.rank_ctx(0).stream;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    stream.Enqueue([&order, i]() -> Coro {
      co_await Delay{100 - i * 20};  // later ops are shorter
      order.push_back(i);
    });
  }
  world.sim().Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Runtime, KernelBlocksQuantizeIntoWaves) {
  // 4 SMs, 8 blocks of 100ns each -> 2 waves -> 200ns of block time.
  sim::MachineSpec spec = sim::MachineSpec::Test(1, /*sms=*/4);
  World world(spec, ExecMode::kFunctional);
  RankCtx& ctx = world.rank_ctx(0);
  auto state = ctx.stream->LaunchKernel(
      8,
      [](BlockCtx) -> Coro { co_await Delay{100}; },
      "wave_test");
  TimeNs done = 0;
  const TimeNs t0 = world.sim().Now();
  world.RunSpmd([&](RankCtx& c) -> Coro {
    co_await state->Wait();
    done = c.sim()->Now();
  });
  EXPECT_EQ(done - t0 - spec.kernel_launch_latency, 200);
}

TEST(Runtime, StreamEventOrdersAcrossStreams) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  RankCtx& ctx = world.rank_ctx(0);
  std::vector<int> order;
  ctx.stream->Enqueue([&order]() -> Coro {
    co_await Delay{500};
    order.push_back(1);
  });
  auto ev = ctx.stream->RecordEvent();
  ctx.comm_stream->WaitEvent(ev);
  ctx.comm_stream->Enqueue([&order]() -> Coro {
    order.push_back(2);
    co_return;
  });
  world.sim().Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Runtime, RemoteSignalHasVisibilityLatency) {
  sim::MachineSpec spec = sim::MachineSpec::Test(2);
  World world(spec, ExecMode::kFunctional);
  SignalSet* sig = world.device(1).AllocSignals("s", 4);
  TimeNs woke = -1;
  world.sim().Spawn([](SignalSet* s, TimeNs* w,
                       sim::Simulator* sim) -> Coro {
    co_await s->Wait(2, 1);
    *w = sim->Now();
  }(sig, &woke, &world.sim()));
  // Rank 0 sets a flag on rank 1's device at t=0.
  sig->SetFrom(/*from_rank=*/0, /*idx=*/2, 1);
  world.sim().Run();
  EXPECT_EQ(woke, spec.signal_visibility_latency);
}

TEST(Runtime, LocalSignalIsFaster) {
  sim::MachineSpec spec = sim::MachineSpec::Test(2);
  World world(spec, ExecMode::kFunctional);
  SignalSet* sig = world.device(1).AllocSignals("s", 1);
  TimeNs woke = -1;
  world.sim().Spawn([](SignalSet* s, TimeNs* w,
                       sim::Simulator* sim) -> Coro {
    co_await s->Wait(0, 1);
    *w = sim->Now();
  }(sig, &woke, &world.sim()));
  sig->SetFrom(/*from_rank=*/1, /*idx=*/0, 1);
  world.sim().Run();
  EXPECT_EQ(woke, spec.local_signal_latency);
}

TEST(Runtime, ConsistencyCheckerFlagsInFlightRead) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  world.checker().RecordWrite(t.buffer(), 0, 64, /*start=*/100, /*end=*/200,
                              "writer");
  world.checker().CheckRead(t.buffer(), 10, 20, /*t=*/150, "reader");
  ASSERT_EQ(world.checker().violations().size(), 1u);
  EXPECT_EQ(world.checker().violations()[0].writer, "writer");
}

TEST(Runtime, ConsistencyCheckerAcceptsOrderedRead) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  world.checker().RecordWrite(t.buffer(), 0, 64, 100, 200, "writer");
  world.checker().CheckRead(t.buffer(), 10, 20, 200, "reader");  // at end: ok
  world.checker().CheckRead(t.buffer(), 10, 20, 250, "reader");
  EXPECT_TRUE(world.checker().violations().empty());
}

TEST(Runtime, ConsistencyCheckerIgnoresDisjointRanges) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  world.checker().RecordWrite(t.buffer(), 0, 32, 100, 200, "writer");
  world.checker().CheckRead(t.buffer(), 32, 64, 150, "reader");
  EXPECT_TRUE(world.checker().violations().empty());
}

// Pinned boundary semantics: [start, end) is half-open — a read at exactly
// write_end is the correct acquire/release rendezvous, a read at exactly
// write_start races.
TEST(Runtime, ConsistencyCheckerBoundarySemantics) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  world.checker().RecordWrite(t.buffer(), 0, 64, 100, 200, "writer");
  world.checker().CheckRead(t.buffer(), 10, 20, 200, "reader");  // at end
  EXPECT_TRUE(world.checker().violations().empty());
  world.checker().CheckRead(t.buffer(), 10, 20, 100, "reader");  // at start
  EXPECT_EQ(world.checker().violations().size(), 1u);
}

TEST(Runtime, ConsistencyCheckerIgnoresEmptyRanges) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  world.checker().RecordWrite(t.buffer(), 0, 64, 100, 200, "writer");
  world.checker().CheckRead(t.buffer(), 5, 5, 150, "reader");  // hi == lo
  world.checker().CheckRead(t.buffer(), 9, 5, 150, "reader");  // hi < lo
  EXPECT_TRUE(world.checker().violations().empty());
  // An empty write never matches later reads either: this full-range read
  // races only the original [0, 64) write, not the empty "writer2" one.
  world.checker().RecordWrite(t.buffer(), 7, 7, 100, 200, "writer2");
  world.checker().CheckRead(t.buffer(), 0, 64, 150, "reader2");
  ASSERT_EQ(world.checker().violations().size(), 1u);
  EXPECT_EQ(world.checker().violations()[0].writer, "writer");
}

// A read-modify-write actor probes its input at its wake instant and
// records its mutation window starting strictly after it ([wake + 1, end)):
// the program-ordered self-access never matches, other actors still do.
TEST(Runtime, ConsistencyCheckerRmwConventionAvoidsSelfRace) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  world.checker().set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  world.checker().CheckRead(t.buffer(), 0, 64, 100, "reduce.r0");
  world.checker().RecordWrite(t.buffer(), 0, 64, 101, 180, "reduce.r0");
  EXPECT_TRUE(world.checker().violations().empty());
  // Any actor reading inside the mutation window is a race — including a
  // same-named one (names are diagnostics, not actor identity).
  world.checker().CheckRead(t.buffer(), 0, 64, 120, "reduce.r0");
  EXPECT_EQ(world.checker().violations().size(), 1u);
}

TEST(Runtime, ConsistencyCheckerRetiresCompletedIntervals) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  chk.set_auto_retire_period(0);  // manual control
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  chk.RecordWrite(t.buffer(), 0, 8, 100, 200, "w");
  chk.CheckRead(t.buffer(), 0, 8, 200, "r");
  EXPECT_EQ(chk.live_writes(), 1u);
  EXPECT_EQ(chk.live_reads(), 1u);
  chk.RetireUpTo(150);  // write still in flight: nothing retires
  EXPECT_EQ(chk.live_writes(), 1u);
  chk.RetireUpTo(250);
  EXPECT_EQ(chk.live_writes(), 0u);
  EXPECT_EQ(chk.live_reads(), 0u);
  EXPECT_EQ(chk.retired_intervals(), 2u);
  EXPECT_TRUE(chk.violations().empty());
}

// Regression: the live set stays bounded under sustained registration (the
// functional 16-GPU collectives register one interval per chunk for the
// whole run — the checker must not accumulate them all).
TEST(Runtime, ConsistencyCheckerAutoRetireBoundsLiveSet) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  chk.set_auto_retire_period(256);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  const int kIntervals = 10000;
  for (int i = 0; i < kIntervals; ++i) {
    const sim::TimeNs start = i * 10;
    chk.RecordWrite(t.buffer(), i % 64, i % 64 + 1, start, start + 5, "w");
    chk.CheckRead(t.buffer(), i % 64, i % 64 + 1, start + 5, "r");
  }
  EXPECT_TRUE(chk.violations().empty());
  EXPECT_LE(chk.live_writes() + chk.live_reads(), 2u * 256u + 2u);
  EXPECT_GT(chk.retired_intervals(), 0u);
}

// OpenWrite pins the retirement watermark: a read probed while a write is
// in flight survives arbitrarily many unrelated retirement rounds and is
// still matched by the order-independent audit when the write commits.
TEST(Runtime, ConsistencyCheckerOpenWriteGuardsInFlightAudit) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  chk.set_auto_retire_period(8);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  Tensor u = Tensor::Alloc(world.device(0), "other", {64}, DType::kFP32);
  const uint64_t wt = chk.OpenWrite(100);
  chk.CheckRead(t.buffer(), 0, 8, 150, "racer");
  // Unrelated traffic far in the future trips auto-retire many times.
  for (int i = 0; i < 64; ++i) {
    const sim::TimeNs start = 10000 + i * 10;
    chk.RecordWrite(u.buffer(), 0, 1, start, start + 1, "noise");
  }
  EXPECT_GE(chk.live_reads(), 1u);  // the racer probe must survive
  chk.RecordWrite(t.buffer(), 0, 8, 100, 200, "writer");
  chk.CloseWrite(wt);
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_EQ(chk.violations()[0].reader, "racer");
  // Without the open-write guard the probe would have been retired:
  chk.Clear();
  chk.set_enabled(true);
  chk.CheckRead(t.buffer(), 0, 8, 150, "racer");
  chk.RetireUpTo(10000);
  chk.RecordWrite(t.buffer(), 0, 8, 100, 200, "writer");
  EXPECT_TRUE(chk.violations().empty());
}

// The link roles' retry path: a chunk attempt that fails (drop or ack
// timeout) closes its write bracket WITHOUT recording a write. The close
// must unpin the retirement watermark — an aborted attempt that leaked its
// token would pin retirement forever — and must leave no phantom write for
// the audit, so a reader probed during the aborted attempt reports nothing.
TEST(Runtime, ConsistencyCheckerAbortedWriteUnpinsRetirement) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  const uint64_t wt = chk.OpenWrite(100);  // attempt departs...
  chk.CheckRead(t.buffer(), 0, 8, 150, "reader");
  chk.CloseWrite(wt);  // ...and is aborted: nothing was delivered
  EXPECT_EQ(chk.violations().size(), 0u);
  // The watermark is unpinned: retirement passes the aborted bracket and
  // reclaims the probe.
  chk.RetireUpTo(10000);
  EXPECT_EQ(chk.live_reads(), 0u);
  EXPECT_EQ(chk.live_writes(), 0u);
  // The successful retry is a fresh bracket and audits normally.
  const uint64_t wt2 = chk.OpenWrite(200);
  chk.CheckRead(t.buffer(), 0, 8, 20000, "retry_racer");
  chk.RecordWrite(t.buffer(), 0, 8, 19000, 21000, "retry_writer");
  chk.CloseWrite(wt2);
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_EQ(chk.violations()[0].reader, "retry_racer");
}

// Two plain writes overlapping in both element range and time race; a
// write starting exactly at another's end is the correct pipeline handoff;
// disjoint ranges never report.
TEST(Runtime, ConsistencyCheckerWriteWriteOverlapReported) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  chk.RecordWrite(t.buffer(), 0, 32, 100, 200, "writer_a");
  chk.RecordWrite(t.buffer(), 32, 64, 150, 250, "other_range");  // disjoint
  chk.RecordWrite(t.buffer(), 0, 16, 200, 300, "back_to_back");  // handoff
  EXPECT_TRUE(chk.violations().empty());
  chk.RecordWrite(t.buffer(), 16, 48, 150, 250, "overlapper");
  ASSERT_EQ(chk.violations().size(), 2u);  // vs writer_a and other_range
  EXPECT_EQ(chk.violations()[0].kind,
            ConsistencyChecker::Violation::Kind::kWriteWrite);
  EXPECT_EQ(chk.violations()[0].reader, "overlapper");
  EXPECT_EQ(chk.violations()[0].writer, "writer_a");
}

// Instantaneous writes (start == end) model stores committing at one
// point: two of them never race (no duration to overlap), but a point
// store races a window exactly like a read does — inside or at the
// window's start races, at its end is the correct handoff.
TEST(Runtime, ConsistencyCheckerInstantWriteSemantics) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  chk.RecordWrite(t.buffer(), 0, 32, 100, 100, "store_a");
  chk.RecordWrite(t.buffer(), 0, 32, 100, 100, "store_b");  // same instant
  chk.RecordWrite(t.buffer(), 0, 32, 200, 300, "transfer");
  chk.RecordWrite(t.buffer(), 0, 32, 300, 300, "store_at_end");  // handoff
  EXPECT_TRUE(chk.violations().empty());
  // A point store strictly inside the transfer's window is clobbered by
  // the landing copy (the mis-indexed-slot bug class), order-independent.
  chk.RecordWrite(t.buffer(), 0, 32, 250, 250, "store_inside");
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_EQ(chk.violations()[0].kind,
            ConsistencyChecker::Violation::Kind::kWriteWrite);
  chk.RecordWrite(t.buffer(), 0, 32, 400, 400, "store_first");
  chk.RecordWrite(t.buffer(), 0, 32, 350, 450, "transfer_late");
  EXPECT_EQ(chk.violations().size(), 2u);  // caught when the window lands
}

// Commutative atomic accumulations (reduction epilogues) may overlap each
// other — concurrent per-peer reducers folding into one accumulator are
// legal — but an atomic window overlapping a plain write still races.
TEST(Runtime, ConsistencyCheckerAtomicAccumulationsMayOverlap) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  Tensor t = Tensor::Alloc(world.device(0), "buf", {64}, DType::kFP32);
  chk.RecordWrite(t.buffer(), 0, 32, 100, 200, "reduce.s0",
                  /*atomic=*/true);
  chk.RecordWrite(t.buffer(), 0, 32, 150, 250, "reduce.s1",
                  /*atomic=*/true);
  EXPECT_TRUE(chk.violations().empty());
  chk.RecordWrite(t.buffer(), 0, 32, 160, 260, "chunk_copy");
  ASSERT_EQ(chk.violations().size(), 2u);
  EXPECT_EQ(chk.violations()[0].kind,
            ConsistencyChecker::Violation::Kind::kWriteWrite);
}

// Regression for the motivating bug class: a mis-indexed rail staging slot
// receives two concurrent NIC chunks. Both senders bracket their delayed
// writes with OpenWrite (exactly like the link-role TransferChunk), so the
// audit survives auto-retirement churn and reports the overlap when the
// second chunk lands.
TEST(Runtime, ConsistencyCheckerCatchesMisindexedRailStagingSlot) {
  World world(sim::MachineSpec::Test(1), ExecMode::kFunctional);
  ConsistencyChecker& chk = world.checker();
  chk.set_enabled(true);
  chk.set_auto_retire_period(8);
  Tensor staging = Tensor::Alloc(world.device(0), "rail_acc", {256},
                                 DType::kFP32);
  Tensor noise = Tensor::Alloc(world.device(0), "noise", {8}, DType::kFP32);
  // Sender r0's chunk is in flight over [100, 400)...
  const uint64_t wt0 = chk.OpenWrite(100);
  // ...while sender r1, mis-indexed into the same slot, flies [200, 500).
  const uint64_t wt1 = chk.OpenWrite(200);
  // Unrelated far-future traffic trips auto-retire repeatedly.
  for (int i = 0; i < 64; ++i) {
    const sim::TimeNs start = 10000 + i * 10;
    chk.RecordWrite(noise.buffer(), 0, 1, start, start + 1, "noise");
  }
  chk.RecordWrite(staging.buffer(), 0, 128, 100, 400, "hier_rs.rail.r0->r2");
  chk.CloseWrite(wt0);
  chk.RecordWrite(staging.buffer(), 0, 128, 200, 500, "hier_rs.rail.r1->r2");
  chk.CloseWrite(wt1);
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_EQ(chk.violations()[0].kind,
            ConsistencyChecker::Violation::Kind::kWriteWrite);
  EXPECT_EQ(chk.violations()[0].reader, "hier_rs.rail.r1->r2");
  EXPECT_EQ(chk.violations()[0].writer, "hier_rs.rail.r0->r2");
  // Correctly indexed per-source slots (disjoint ranges) stay silent.
  chk.RecordWrite(staging.buffer(), 128, 256, 200, 500,
                  "hier_rs.rail.r1->r2");
  EXPECT_EQ(chk.violations().size(), 1u);
}

// ---------------------------------------------------------------------------
// Property: the bucket-indexed checker against a linear scan
// ---------------------------------------------------------------------------

// The reference: every record and read check scans every live interval of
// its buffer in record order, with the same race rules, the same open-write
// clamp on the retirement watermark and the same auto-retirement cadence.
class LinearChecker {
 public:
  using Violation = ConsistencyChecker::Violation;

  explicit LinearChecker(std::size_t auto_retire_period)
      : period_(auto_retire_period) {}

  uint64_t OpenWrite(TimeNs start) {
    open_[next_token_] = start;
    return next_token_++;
  }
  void CloseWrite(uint64_t token) { open_.erase(token); }

  void RecordWrite(const Buffer* buf, int64_t lo, int64_t hi, TimeNs start,
                   TimeNs end, const std::string& writer, bool atomic) {
    if (lo >= hi) return;
    for (const Write& w : writes_[buf]) {
      bool time_overlap;
      if (start == end) {
        time_overlap = w.start <= start && start < w.end;
      } else if (w.start == w.end) {
        time_overlap = start <= w.start && w.start < end;
      } else {
        time_overlap = std::max(start, w.start) < std::min(end, w.end);
      }
      if (lo < w.hi && w.lo < hi && time_overlap && !(atomic && w.atomic)) {
        violations_.push_back(Violation{buf, lo, hi, start, w.start, w.end,
                                        writer, w.writer,
                                        Violation::Kind::kWriteWrite});
      }
    }
    writes_[buf].push_back(Write{lo, hi, start, end, writer, atomic});
    horizon_ = std::max(horizon_, end);
    for (const Read& r : reads_[buf]) {
      if (r.lo < hi && lo < r.hi && start <= r.t && r.t < end) {
        violations_.push_back(
            Violation{buf, r.lo, r.hi, r.t, start, end, r.reader, writer});
      }
    }
    if (period_ > 0 && ++records_ >= period_) RetireUpTo(horizon_);
  }

  void CheckRead(const Buffer* buf, int64_t lo, int64_t hi, TimeNs t,
                 const std::string& reader) {
    if (lo >= hi) return;
    reads_[buf].push_back(Read{lo, hi, t, reader});
    horizon_ = std::max(horizon_, t);
    for (const Write& w : writes_[buf]) {
      if (lo < w.hi && w.lo < hi && w.start <= t && t < w.end) {
        violations_.push_back(
            Violation{buf, lo, hi, t, w.start, w.end, reader, w.writer});
      }
    }
  }

  void RetireUpTo(TimeNs watermark) {
    TimeNs w = watermark;
    for (const auto& [token, start] : open_) w = std::min(w, start);
    for (auto& [buf, v] : writes_) {
      std::erase_if(v, [w](const Write& x) { return x.end <= w; });
    }
    for (auto& [buf, v] : reads_) {
      std::erase_if(v, [w](const Read& x) { return x.t < w; });
    }
    records_ = 0;
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const auto& [buf, v] : writes_) n += v.size();
    for (const auto& [buf, v] : reads_) n += v.size();
    return n;
  }
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  struct Write {
    int64_t lo, hi;
    TimeNs start, end;
    std::string writer;
    bool atomic;
  };
  struct Read {
    int64_t lo, hi;
    TimeNs t;
    std::string reader;
  };
  std::size_t period_;
  std::size_t records_ = 0;
  TimeNs horizon_ = 0;
  uint64_t next_token_ = 1;
  std::map<uint64_t, TimeNs> open_;
  std::map<const Buffer*, std::vector<Write>> writes_;
  std::map<const Buffer*, std::vector<Read>> reads_;
  std::vector<Violation> violations_;
};

bool SameViolation(const ConsistencyChecker::Violation& a,
                   const ConsistencyChecker::Violation& b) {
  return a.buffer == b.buffer && a.lo == b.lo && a.hi == b.hi &&
         a.read_time == b.read_time && a.write_start == b.write_start &&
         a.write_end == b.write_end && a.reader == b.reader &&
         a.writer == b.writer && a.kind == b.kind;
}

// Seeded streams of records, read checks, open/close brackets and
// retirements over three buffers of different extents: single elements,
// ranges across many buckets, whole-buffer ranges (the index's linear and
// wide paths), empty ranges, and strided runs the way the interpreter
// records a column strip (one interval per row). Times advance slowly, so
// windows overlap and races are common. Both checkers must report the same
// violations in the same order and keep the same live set.
TEST(Runtime, ConsistencyCheckerIndexMatchesLinearScan) {
  uint64_t total_violations = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    auto pick = [&rng](int64_t lo, int64_t hi) {
      return rng.UniformInt(lo, hi);
    };
    const std::size_t period = seed % 3 == 0 ? 0 : 16 * (seed % 4 + 1);
    const Buffer bufs[] = {{0, "small", 96, false},
                           {0, "rows", 64 * 48, false},
                           {0, "big", 1 << 16, false}};
    ConsistencyChecker chk;
    chk.set_enabled(true);
    chk.set_auto_retire_period(period);
    LinearChecker ref(period);
    std::vector<std::pair<uint64_t, uint64_t>> open;  // (indexed, linear)
    TimeNs now = 0;
    for (int op = 0; op < 1500; ++op) {
      now += pick(0, 3);
      const Buffer* buf = &bufs[pick(0, 2)];
      const int64_t extent = buf->num_elems();
      int64_t lo = pick(0, extent - 1);
      int64_t len;
      switch (pick(0, 5)) {
        case 0:
          len = 1;
          break;
        case 1:
          len = pick(1, 64);
          break;
        case 2:
          len = pick(64, 2048);  // many buckets, sometimes wide
          break;
        case 3:
          lo = 0;
          len = extent;  // the whole buffer
          break;
        case 4:
          len = 0;  // empty: never stored, never reported
          break;
        default:
          len = pick(1, 256);
          break;
      }
      const int64_t hi = std::min(extent, lo + len);
      const std::string who = "actor" + std::to_string(pick(0, 3));
      const int kind = static_cast<int>(pick(0, 9));
      if (kind <= 2) {
        const TimeNs t = now - pick(0, 20);
        chk.CheckRead(buf, lo, hi, t, who);
        ref.CheckRead(buf, lo, hi, t, who);
      } else if (kind <= 5) {
        const TimeNs start = now - pick(0, 30);
        const TimeNs end = pick(0, 4) == 0 ? start : start + pick(1, 40);
        const bool atomic = pick(0, 3) == 0;
        chk.RecordWrite(buf, lo, hi, start, end, who, atomic);
        ref.RecordWrite(buf, lo, hi, start, end, who, atomic);
      } else if (kind == 6) {
        // A strided run: one interval per row of a column strip.
        const int64_t pitch = pick(65, 512);
        const int64_t run = pick(1, 64);
        const int64_t rows = pick(2, 12);
        const TimeNs start = now - pick(0, 10);
        for (int64_t r = 0; r < rows; ++r) {
          const int64_t row_lo = (lo + r * pitch) % extent;
          const int64_t row_hi = std::min(extent, row_lo + run);
          chk.RecordWrite(buf, row_lo, row_hi, start, start + 20, who, false);
          ref.RecordWrite(buf, row_lo, row_hi, start, start + 20, who, false);
        }
      } else if (kind == 7) {
        const TimeNs start = now - pick(0, 10);
        open.emplace_back(chk.OpenWrite(start), ref.OpenWrite(start));
      } else if (kind == 8 && !open.empty()) {
        const auto i = static_cast<std::size_t>(
            pick(0, static_cast<int64_t>(open.size()) - 1));
        chk.CloseWrite(open[i].first);
        ref.CloseWrite(open[i].second);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind == 9 && pick(0, 4) == 0) {
        const TimeNs w = now - pick(0, 50);
        chk.RetireUpTo(w);
        ref.RetireUpTo(w);
      }
      ASSERT_EQ(chk.live_writes() + chk.live_reads(), ref.live())
          << "seed " << seed << " op " << op;
    }
    const auto& got = chk.violations();
    const auto& want = ref.violations();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameViolation(got[i], want[i]))
          << "seed " << seed << " violation " << i;
    }
    total_violations += got.size();
  }
  EXPECT_GT(total_violations, 1000u);  // the races the stream plants
}

TEST(Runtime, BarrierRendezvousAllRanks) {
  World world(sim::MachineSpec::Test(4), ExecMode::kFunctional);
  std::vector<TimeNs> after(4, -1);
  world.RunSpmd([&](RankCtx& ctx) -> Coro {
    co_await Delay{100 * (ctx.rank + 1)};  // staggered arrivals
    co_await ctx.world->barrier().Arrive();
    after[static_cast<size_t>(ctx.rank)] = ctx.sim()->Now();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(after[static_cast<size_t>(r)], 400) << "rank " << r;
  }
}

TEST(Runtime, BarrierIsReusable) {
  World world(sim::MachineSpec::Test(2), ExecMode::kFunctional);
  int phase_sum = 0;
  world.RunSpmd([&](RankCtx& ctx) -> Coro {
    for (int i = 0; i < 3; ++i) {
      co_await ctx.world->barrier().Arrive();
      phase_sum++;
    }
  });
  EXPECT_EQ(phase_sum, 6);
}

TEST(Runtime, TimingOnlyModeSkipsPayloads) {
  World world(sim::MachineSpec::Test(2), ExecMode::kTimingOnly);
  Tensor t = Tensor::Alloc(world.device(0), "big", {1024}, DType::kBF16);
  EXPECT_FALSE(t.materialized());
  EXPECT_THROW(t.buffer()->data(), Error);
}

}  // namespace
}  // namespace tilelink::rt
