// Tests for the TileLink compiler: builder structure, the §4.2 memory-
// consistency verifier (accept + reject), listing codegen, and the
// fault-injection path — the deliberately-unsafe reordering pass must
// produce runtime consistency violations that the checker catches, while
// the safe compilation of the same program is clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "runtime/world.h"
#include "tensor/tensor_ops.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/primitives.h"
#include "tilelink/program.h"

namespace tilelink::tl {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;

Op NopWait(const std::string& label) {
  return ops::ConsumerTileWait(label, [](const Env&) {
    WaitSpec s;
    return s;  // no channels: structurally a wait, semantically free
  });
}

Op AcquireLoad(const std::string& label) {
  return ops::Load(label, /*acquire=*/true, nullptr);
}

Op PlainStore(const std::string& label) {
  return ops::Store(label, nullptr);
}

Op Notify(const std::string& label) {
  return ops::ProducerTileNotify(label, [](const Env&) {
    NotifySpec s;
    return s;
  });
}

FusedKernelSpec OneRoleSpec(BlockProgram program) {
  FusedKernelSpec spec;
  spec.name = "test_kernel";
  spec.roles.push_back(Role{"role0", 1, std::move(program)});
  return spec;
}

TEST(Verifier, AcceptsWaitBeforeAcquireLoad) {
  TileProgramBuilder b;
  b.Add(NopWait("w")).Add(AcquireLoad("l")).Add(PlainStore("s")).Add(
      Notify("n"));
  EXPECT_NO_THROW(Compiler().Compile(OneRoleSpec(b.Build())));
}

TEST(Verifier, RejectsAcquireLoadWithoutWait) {
  TileProgramBuilder b;
  b.Add(AcquireLoad("naked_load"));
  try {
    Compiler().Compile(OneRoleSpec(b.Build()));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("naked_load"), std::string::npos);
  }
}

TEST(Verifier, RejectsNotifyWithoutPrecedingWrite) {
  TileProgramBuilder b;
  b.Add(Notify("orphan_notify"));
  EXPECT_THROW(Compiler().Compile(OneRoleSpec(b.Build())), VerifyError);
}

TEST(Verifier, WaitInsideLoopDominatesLoopBody) {
  TileProgramBuilder b;
  b.For("t", [](const Env&) { return int64_t{2}; },
        [](TileProgramBuilder& body) {
          body.Add(NopWait("w")).Add(AcquireLoad("l"));
        });
  EXPECT_NO_THROW(Compiler().Compile(OneRoleSpec(b.Build())));
}

TEST(Verifier, WaitBeforeLoopDominatesLoopBody) {
  TileProgramBuilder b;
  b.Add(NopWait("w"));
  b.For("t", [](const Env&) { return int64_t{2}; },
        [](TileProgramBuilder& body) { body.Add(AcquireLoad("l")); });
  EXPECT_NO_THROW(Compiler().Compile(OneRoleSpec(b.Build())));
}

TEST(Verifier, WaitInsideLoopDoesNotEscapeLoop) {
  // A wait inside a loop (possibly zero-trip) cannot satisfy an
  // acquire-load after the loop.
  TileProgramBuilder b;
  b.For("t", [](const Env&) { return int64_t{0}; },
        [](TileProgramBuilder& body) { body.Add(NopWait("w")); });
  b.Add(AcquireLoad("late_load"));
  EXPECT_THROW(Compiler().Compile(OneRoleSpec(b.Build())), VerifyError);
}

TEST(Listing, EmitsRolesLoopsAndSyncMnemonics) {
  TileProgramBuilder comm;
  comm.Add(ops::TilePullData("pull", [](const Env&) { return DataSpec{}; }));
  comm.Add(Notify("notify"));
  TileProgramBuilder compute;
  compute.For("k", [](const Env&) { return int64_t{4}; },
              [](TileProgramBuilder& body) {
                body.Add(NopWait("w")).Add(AcquireLoad("l"));
              });
  FusedKernelSpec spec;
  spec.name = "listing_test";
  spec.roles.push_back(Role{"comm", 2, comm.Build()});
  spec.roles.push_back(Role{"compute", 3, compute.Build()});
  CompiledKernel kernel = Compiler().Compile(std::move(spec));
  const std::string& l = kernel.listing();
  EXPECT_NE(l.find(".role comm"), std::string::npos);
  EXPECT_NE(l.find(".role compute"), std::string::npos);
  EXPECT_NE(l.find("for k:"), std::string::npos);
  EXPECT_NE(l.find("ld.global.remote"), std::string::npos);
  EXPECT_NE(l.find("red.release.global.add"), std::string::npos);
  EXPECT_NE(l.find("spin.ld.global.acquire"), std::string::npos);
  EXPECT_NE(l.find("ld.global.acquire.b128"), std::string::npos);
}

// ---------------------------------------------------------------------- //
// Fault injection: the unsafe reordering of §4.2 must be caught at runtime
// by the consistency checker (and may corrupt numerics), while the safe
// compilation of the identical kernel is clean. We use the SM-pull AG+GEMM
// kernel whose consumer loads genuinely race with the comm role's pulls
// when hoisted above their waits.
// ---------------------------------------------------------------------- //

// A purpose-built producer/consumer pair where the unsafe reorder lands the
// consumer's acquire-load deterministically inside the producer's transfer
// window: the producer pushes a large tile to its peer and notifies; the
// consumer runs a pipeline-prologue delay, waits, then loads. Sinking the
// wait (unsafe mode) makes the load probe mid-transfer.
size_t RunRaceProbe(bool unsafe) {
  const int R = 2;
  sim::MachineSpec spec = sim::MachineSpec::Test(R, 4);
  spec.nvlink_gbps = 1.0;  // 1 MiB push ~ 1 ms window
  World world(spec, ExecMode::kFunctional);
  world.checker().set_enabled(true);
  auto bufs = world.AllocSymmetric("race_buf", 1 << 16);

  TileProgramBuilder comm;
  comm.Add(ops::TilePushData(
      "push",
      [bufs](const Env& e) {
        DataSpec d;
        d.src_rank = e.rank;
        d.dst_rank = 1 - e.rank;
        d.bytes = 1 << 20;
        d.write_buf = bufs[static_cast<size_t>(1 - e.rank)];
        d.write_lo = 0;
        d.write_hi = 1 << 16;
        return d;
      }));
  comm.Add(ops::ProducerTileNotify("notify", [](const Env& e) {
    NotifySpec s;
    s.entries.push_back(NotifyEntry{
        SignalSpace::kProducerConsumer, 1 - e.rank, 0, 1});
    return s;
  }));

  TileProgramBuilder compute;
  compute.Add(ops::Mma("prologue",
                       [](const Env&, const sim::CostModel&) {
                         return sim::Us(200.0);  // deep pipeline fill
                       }));
  compute.Add(ops::ConsumerTileWait("wait", [](const Env&) {
    WaitSpec s;
    s.waits.push_back(ChannelWait{0, 1});
    return s;
  }));
  compute.Add(ops::Load("consume", /*acquire=*/true, [bufs](const Env& e) {
    DataSpec d;
    d.read_buf = bufs[static_cast<size_t>(e.rank)];
    d.read_lo = 0;
    d.read_hi = 1 << 16;
    return d;
  }));

  FusedKernelSpec spec_k;
  spec_k.name = "race_probe";
  spec_k.roles.push_back(Role{"comm", 1, comm.Build()});
  spec_k.roles.push_back(Role{"compute", 1, compute.Build()});
  CompilerOptions opt;
  opt.unsafe_reorder = unsafe;
  CompiledKernel kernel = Compiler(opt).Compile(std::move(spec_k));
  auto bcs = BlockChannel::CreateSymmetric(world, "race", 1, 1, 1);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    auto state = kernel.Launch(ctx, *ctx.stream,
                               bcs[static_cast<size_t>(ctx.rank)]);
    co_await state->Wait();
  });
  return world.checker().violations().size();
}

TEST(FaultInjection, SafeCompilationHasNoViolations) {
  EXPECT_EQ(RunRaceProbe(false), 0u);
}

TEST(FaultInjection, UnsafeReorderIsDetectedByChecker) {
  // The sunk wait makes the acquire-load probe while the peer's push is in
  // flight: the checker must flag a read-before-release.
  EXPECT_GT(RunRaceProbe(true), 0u)
      << "unsafe reordering went undetected by the consistency checker";
}

TEST(Compiler, UnsafeModeChangesListingOrder) {
  // In the unsafe listing the acquire-load precedes the wait.
  auto build = [](bool unsafe) {
    TileProgramBuilder b;
    b.Add(PlainStore("st"));
    b.Add(NopWait("w"));
    b.Add(AcquireLoad("l"));
    CompilerOptions opt;
    opt.unsafe_reorder = unsafe;
    return Compiler(opt).Compile(OneRoleSpec(b.Build())).listing();
  };
  const std::string safe = build(false);
  const std::string unsafe = build(true);
  EXPECT_LT(safe.find("spin.ld.global.acquire"),
            safe.find("ld.global.acquire.b128"));
  EXPECT_GT(unsafe.find("spin.ld.global.acquire"),
            unsafe.find("ld.global.acquire.b128"));
}

TEST(Builder, LoopDepthsAreLexical) {
  TileProgramBuilder b;
  std::vector<int> seen_depths;
  b.For("a", [](const Env&) { return int64_t{1}; },
        [&](TileProgramBuilder& ba) {
          ba.For("b", [](const Env&) { return int64_t{1}; },
                 [&](TileProgramBuilder& bb) {
                   bb.Add(PlainStore("s"));
                 });
        });
  BlockProgram p = b.Build();
  ASSERT_EQ(p.stmts.size(), 1u);
  ASSERT_TRUE(p.stmts[0].loop != nullptr);
  EXPECT_EQ(p.stmts[0].loop->depth, 0);
  ASSERT_EQ(p.stmts[0].loop->body.size(), 1u);
  EXPECT_EQ(p.stmts[0].loop->body[0].loop->depth, 1);
}

// ---------------------------------------------------------------------- //
// Interpreter semantics: loop cursors, error surfacing, checker-only
// DataSpecs and async-DMA release ordering.
// ---------------------------------------------------------------------- //

// Launches every role of `spec` once per rank and returns the makespan.
sim::TimeNs RunKernel(World& world, FusedKernelSpec spec) {
  CompiledKernel kernel = Compiler().Compile(std::move(spec));
  auto bcs = BlockChannel::CreateSymmetric(world, "interp", 1, 1, 1);
  return world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    auto state = kernel.Launch(ctx, *ctx.stream,
                               bcs[static_cast<size_t>(ctx.rank)]);
    co_await state->Wait();
  });
}

using LoopVars = std::array<int64_t, kMaxLoopDepth>;

// A 1 ns MMA step that records the loop variables it sees.
Op RecordLoopVars(std::vector<LoopVars>* seen) {
  return ops::Mma("record", [seen](const Env& e, const sim::CostModel&) {
    seen->push_back(e.loop);
    return sim::TimeNs{1};
  });
}

std::function<int64_t(const Env&)> Trips(int64_t n) {
  return [n](const Env&) { return n; };
}

TEST(Interpreter, ZeroTripLoopLeavesItsVariableZero) {
  // Outer iteration 0 runs the inner loop 3 times, iteration 1 skips it;
  // the op after the inner loop must see iv(1) == 0 either way.
  std::vector<LoopVars> after;
  TileProgramBuilder b;
  b.For("a", Trips(2), [&](TileProgramBuilder& outer) {
    outer.For("b",
              [](const Env& e) { return e.iv(0) == 0 ? int64_t{3} : 0; },
              [](TileProgramBuilder& inner) { inner.Add(PlainStore("s")); });
    outer.Add(RecordLoopVars(&after));
  });
  b.For("c", Trips(0), [](TileProgramBuilder& body) {
    body.Add(PlainStore("never"));
  });
  b.Add(RecordLoopVars(&after));
  World world(sim::MachineSpec::Test(1, 4), ExecMode::kTimingOnly);
  RunKernel(world, OneRoleSpec(b.Build()));
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0], (LoopVars{0, 0, 0, 0}));
  EXPECT_EQ(after[1], (LoopVars{1, 0, 0, 0}));
  EXPECT_EQ(after[2], (LoopVars{0, 0, 0, 0}));
}

TEST(Interpreter, FourDeepNestSeesEveryLoopVariable) {
  // One recorder per nesting level, after that level's inner loop, so every
  // op sees the live variables of its enclosing loops and zeros below.
  std::vector<LoopVars> seen;
  TileProgramBuilder b;
  b.For("a", Trips(2), [&](TileProgramBuilder& l0) {
    l0.For("b", Trips(3), [&](TileProgramBuilder& l1) {
      l1.For("c", Trips(2), [&](TileProgramBuilder& l2) {
        l2.For("d", Trips(2), [&](TileProgramBuilder& l3) {
          l3.Add(RecordLoopVars(&seen));
        });
        l2.Add(RecordLoopVars(&seen));
      });
      l1.Add(RecordLoopVars(&seen));
    });
    l0.Add(RecordLoopVars(&seen));
  });
  World world(sim::MachineSpec::Test(1, 4), ExecMode::kTimingOnly);
  RunKernel(world, OneRoleSpec(b.Build()));

  std::vector<LoopVars> expected;
  for (int64_t a = 0; a < 2; ++a) {
    for (int64_t bb = 0; bb < 3; ++bb) {
      for (int64_t c = 0; c < 2; ++c) {
        for (int64_t d = 0; d < 2; ++d) expected.push_back({a, bb, c, d});
        expected.push_back({a, bb, c, 0});
      }
      expected.push_back({a, bb, 0, 0});
    }
    expected.push_back({a, 0, 0, 0});
  }
  EXPECT_EQ(seen, expected);

  // The builder still rejects a fifth level.
  auto nest = [](int levels) {
    std::function<void(TileProgramBuilder&, int)> add =
        [&add](TileProgramBuilder& tb, int left) {
          if (left == 0) {
            tb.Add(PlainStore("s"));
            return;
          }
          tb.For("v", Trips(1), [&add, left](TileProgramBuilder& body) {
            add(body, left - 1);
          });
        };
    TileProgramBuilder root;
    add(root, levels);
  };
  EXPECT_NO_THROW(nest(kMaxLoopDepth));
  EXPECT_THROW(nest(kMaxLoopDepth + 1), Error);
}

TEST(Interpreter, PushPullWithoutDataSpecSurfacesFromRunSpmd) {
  TileProgramBuilder b;
  b.Add(ops::TilePullData("naked_pull", nullptr));
  World world(sim::MachineSpec::Test(1, 4), ExecMode::kTimingOnly);
  try {
    RunKernel(world, OneRoleSpec(b.Build()));
    FAIL() << "expected the missing DataSpec to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("naked_pull"), std::string::npos) << what;
    EXPECT_NE(what.find("lacks a DataSpec"), std::string::npos) << what;
  }
}

TEST(Interpreter, LoadStoreDataSpecsRunOnlyUnderTheChecker) {
  struct Counts {
    int load = 0;
    int store = 0;
    sim::TimeNs makespan = 0;
  };
  auto run = [](bool checker) {
    Counts c;
    TileProgramBuilder b;
    b.For("t", Trips(3), [&](TileProgramBuilder& body) {
      Op load = ops::Load("counted_load", /*acquire=*/false,
                          [&c](const Env&) {
                            ++c.load;
                            return DataSpec{};
                          });
      load.cost = [](const Env&, const sim::CostModel&) {
        return sim::TimeNs{7};
      };
      Op store = ops::Store("counted_store", [&c](const Env&) {
        ++c.store;
        return DataSpec{};
      });
      store.cost = [](const Env&, const sim::CostModel&) {
        return sim::TimeNs{5};
      };
      body.Add(std::move(load)).Add(std::move(store));
    });
    World world(sim::MachineSpec::Test(1, 4), ExecMode::kTimingOnly);
    world.checker().set_enabled(checker);
    c.makespan = RunKernel(world, OneRoleSpec(b.Build()));
    return c;
  };
  const Counts off = run(false);
  const Counts on = run(true);
  EXPECT_EQ(off.load, 0);
  EXPECT_EQ(off.store, 0);
  EXPECT_EQ(on.load, 3);
  EXPECT_EQ(on.store, 3);
  EXPECT_EQ(on.makespan, off.makespan);
}

TEST(Interpreter, AsyncDmaNotifyFiresAfterTheTransferLands) {
  // Rank r's comm block hands a 1 MiB push to a copy engine (~1 ms at
  // 1 GB/s) and moves on; rank 1 - r's compute block waits for the
  // completion notify.
  sim::MachineSpec spec = sim::MachineSpec::Test(2, 4);
  spec.nvlink_gbps = 1.0;
  constexpr uint64_t kBytes = 1 << 20;
  World world(spec, ExecMode::kTimingOnly);
  std::vector<sim::TimeNs> issuer_next, consumer_woke;
  auto now_into = [&world](std::vector<sim::TimeNs>* out) {
    return ops::Mma("stamp", [&world, out](const Env&, const sim::CostModel&) {
      out->push_back(world.sim().Now());
      return sim::TimeNs{1};
    });
  };

  TileProgramBuilder comm;
  comm.Add(ops::TilePushData(
      "dma_push",
      [](const Env& e) {
        DataSpec d;
        d.src_rank = e.rank;
        d.dst_rank = 1 - e.rank;
        d.bytes = kBytes;
        return d;
      },
      [](const Env& e) {
        return NotifyOne(SignalSpace::kProducerConsumer, 1 - e.rank, 0);
      },
      /*async_dma=*/true));
  comm.Add(now_into(&issuer_next));
  TileProgramBuilder compute;
  compute.Add(ops::ConsumerTileWait("wait_landed", [](const Env&) {
    WaitSpec s;
    s.waits.push_back(ChannelWait{0, 1});
    return s;
  }));
  compute.Add(now_into(&consumer_woke));

  FusedKernelSpec k;
  k.name = "async_push_probe";
  k.roles.push_back(Role{"comm", 1, comm.Build()});
  k.roles.push_back(Role{"compute", 1, compute.Build()});
  RunKernel(world, std::move(k));

  ASSERT_EQ(issuer_next.size(), 2u);
  ASSERT_EQ(consumer_woke.size(), 2u);
  const sim::TimeNs issued = std::max(issuer_next[0], issuer_next[1]);
  const sim::TimeNs landed = std::min(consumer_woke[0], consumer_woke[1]);
  EXPECT_GE(landed - issued, static_cast<sim::TimeNs>(kBytes))
      << "notify_after fired before the 1 MiB transfer could land";
}

TEST(Compiler, RejectsEmptyKernel) {
  FusedKernelSpec spec;
  spec.name = "empty";
  EXPECT_THROW(Compiler().Compile(std::move(spec)), Error);
}

}  // namespace
}  // namespace tilelink::tl
