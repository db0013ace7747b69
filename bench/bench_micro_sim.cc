// Microbenchmarks of the simulator substrate itself: event-loop throughput
// (one event in flight, and many in lockstep at one time), host-callback
// scheduling, resource contention, flag/resource park and wake, network
// flows, an end-to-end overlapped kernel (wall-clock cost of simulating
// one AG+GEMM, with World build + compile timed apart from the interpreted
// run) and the FLUX GEMM+RS baseline (many small contending flows). A
// counting global operator new reports heap allocations per event on the
// park/wake and the two kernel rungs; those counts are deterministic.
// Built on the vendored harness in bench/microbench.h (Google Benchmark API
// subset) so it always compiles without external dependencies.
#include "bench/microbench.h"

#include <chrono>
#include <thread>
#include <vector>

#include "baselines/flux_baselines.h"
#include "bench/bench_common.h"
#include "comm/collectives.h"
#include "common/counting_new.h"
#include "sim/flag.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "tilelink/kernels/ag_gemm.h"

namespace tilelink {
namespace {

sim::Coro Ping(sim::TimeNs step, int count) {
  for (int i = 0; i < count; ++i) {
    co_await sim::Delay{step};
  }
}

void BM_EventLoop(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    s.Spawn(Ping(10, events));
    s.Run();
    benchmark::DoNotOptimize(s.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoop)->Arg(1000)->Arg(100000);

// N coroutines in lockstep, each looping Delay{10}: the queue holds N events
// at one time, the shape SPMD kernel sims have (every block steps through
// the same tile costs) and the single-event BM_EventLoop hides.
void BM_EventLoopWide(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  constexpr int kEvents = 100000;
  const int steps = kEvents / width;
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < width; ++i) s.Spawn(Ping(10, steps));
    s.Run();
    benchmark::DoNotOptimize(s.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * width * steps);
}
BENCHMARK(BM_EventLoopWide)->Arg(64)->Arg(1024);

// Aggregate event throughput of N independent simulators on N threads —
// the execution shape of the parallel autotuner (one private World per
// worker, zero shared mutable state). items/s is the *aggregate* events/s
// across all threads, directly comparable to the single-thread BM_EventLoop
// baseline; near-linear scaling here means candidate evaluation shards
// without the simulators contending on anything.
void BM_EventLoopThreaded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kEvents = 100000;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back([] {
        sim::Simulator s;
        s.Spawn(Ping(10, kEvents));
        s.Run();
        benchmark::DoNotOptimize(s.processed_events());
      });
    }
    sim::Simulator s;
    s.Spawn(Ping(10, kEvents));
    s.Run();
    for (std::thread& th : pool) th.join();
    benchmark::DoNotOptimize(s.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * threads * kEvents);
}
BENCHMARK(BM_EventLoopThreaded)->Arg(1)->Arg(2)->Arg(8);

void BM_HostCallbacks(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    uint64_t sum = 0;
    for (int i = 0; i < events; ++i) {
      s.At(i, [&sum, i] { sum += static_cast<uint64_t>(i); });
    }
    s.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HostCallbacks)->Arg(1000)->Arg(100000);

sim::Coro UseRes(sim::Resource* res) {
  co_await res->Acquire();
  co_await sim::Delay{5};
  res->Release();
}

void BM_ResourceContention(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Resource res(&s, 4, "r");
    for (int i = 0; i < waiters; ++i) s.Spawn(UseRes(&res));
    s.Run();
  }
  state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_ResourceContention)->Arg(128)->Arg(4096);

sim::Coro PingFlags(sim::Flag* ping, sim::Flag* pong, int rounds) {
  for (int i = 1; i <= rounds; ++i) {
    ping->Set(static_cast<uint64_t>(i));
    co_await pong->WaitGe(static_cast<uint64_t>(i));
  }
}

sim::Coro PongFlags(sim::Flag* ping, sim::Flag* pong, int rounds) {
  for (int i = 1; i <= rounds; ++i) {
    co_await ping->WaitGe(static_cast<uint64_t>(i));
    co_await sim::Delay{1};
    pong->Set(static_cast<uint64_t>(i));
  }
}

sim::Coro ContendLoop(sim::Resource* res, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await res->Acquire();
    co_await sim::Delay{2};
    res->Release();
  }
}

// Park/wake rung: a flag ping-pong plus 16 coroutines contending for a
// 4-unit resource, every round parking and waking, in one simulator that a
// first pass warmed up. allocs_per_event counts global operator new calls
// over the warm passes.
void BM_ParkWake(benchmark::State& state) {
  constexpr int kRounds = 1000;
  sim::Simulator s;
  sim::Flag ping(&s, "ping");
  sim::Flag pong(&s, "pong");
  sim::Resource res(&s, 4, "res");
  auto pass = [&] {
    ping.Reset();
    pong.Reset();
    s.Spawn(PingFlags(&ping, &pong, kRounds));
    s.Spawn(PongFlags(&ping, &pong, kRounds));
    for (int i = 0; i < 16; ++i) s.Spawn(ContendLoop(&res, kRounds / 16));
    s.Run();
    benchmark::DoNotOptimize(pong.value());
  };
  pass();  // warm-up
  const uint64_t events0 = s.processed_events();
  const uint64_t allocs0 = HeapAllocations();
  for (auto _ : state) pass();
  const uint64_t events = s.processed_events() - events0;
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(HeapAllocations() - allocs0) /
                       static_cast<double>(events)
                 : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_ParkWake);

sim::Coro OneFlow(sim::Network* net, int src, int dst) {
  co_await net->Transfer(src, dst, 1 << 20);
}

// All flows start together, flow i from port i % 8 to (i + 1) % 8.
// events_per_flow counts every simulator event (spawn, latency, wake-ups,
// retirement), completion_events_per_flow the network's completion entries.
void BM_NetworkFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Network net(&s, 8, 150.0, 2200, "nvl");
    for (int i = 0; i < flows; ++i) {
      s.Spawn(OneFlow(&net, i % 8, (i + 1) % 8));
    }
    s.Run();
    benchmark::DoNotOptimize(s.Now());
    state.counters["events_per_flow"] =
        static_cast<double>(s.processed_events()) / flows;
    state.counters["completion_events_per_flow"] =
        static_cast<double>(net.completion_events()) / flows;
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_NetworkFlows)->Arg(64)->Arg(512)->Arg(4096);

// The program-interpreter rung: build_ms is World construction plus kernel
// build and compile, run_ms the RunSpmd that interprets the block programs;
// events_per_s counts simulator events over run_ms only. allocs counts
// global operator new calls during the last (warm) RunSpmd, resumes the
// coroutine resumes (each pure-compute k-loop is one repeated delay,
// resumed once per tile) and queue_pops the event-queue entries popped
// (lockstep k-loop repeats travel as one queued wave), each per simulation
// and per simulator event (the *_per_event keys). The absolute counts are
// the ones to gate: an edit that drops events (the network's empty
// wake-ups) raises the per-event ratios without adding any work.
void BM_SimulateAgGemmMlp1(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  double build_s = 0.0;
  double run_s = 0.0;
  uint64_t events = 0;
  uint64_t resumes = 0;
  uint64_t queue_pops = 0;
  uint64_t allocs = 0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    rt::World world(sim::MachineSpec::H800x8(), rt::ExecMode::kTimingOnly);
    tl::AgGemmConfig cfg;
    cfg.m = 8192;
    cfg.k = 4096;
    cfg.n = 11008 / 8;
    cfg.gemm = bench::CoarseTiling(cfg.k);
    cfg.channels_per_rank = 4;
    cfg.comm = tl::CommResource::kDma;
    tl::AgGemm kernel(world, cfg);
    const Clock::time_point t1 = Clock::now();
    const uint64_t allocs0 = HeapAllocations();
    const sim::TimeNs t = world.RunSpmd(
        [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
    allocs = HeapAllocations() - allocs0;
    const Clock::time_point t2 = Clock::now();
    benchmark::DoNotOptimize(t);
    build_s += std::chrono::duration<double>(t1 - t0).count();
    run_s += std::chrono::duration<double>(t2 - t1).count();
    events = world.sim().processed_events();
    resumes = world.sim().resumes();
    queue_pops = world.sim().queue_pops();
    state.counters["sim_ms"] = static_cast<double>(t) / 1e6;
    state.counters["events"] = static_cast<double>(events);
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["build_ms"] = build_s * 1e3 / iters;
  state.counters["run_ms"] = run_s * 1e3 / iters;
  state.counters["events_per_s"] =
      run_s > 0.0 ? static_cast<double>(events) * iters / run_s : 0.0;
  state.counters["allocs"] = static_cast<double>(allocs);
  state.counters["resumes"] = static_cast<double>(resumes);
  state.counters["queue_pops"] = static_cast<double>(queue_pops);
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0.0;
  state.counters["resumes_per_event"] =
      events > 0 ? static_cast<double>(resumes) / static_cast<double>(events)
                 : 0.0;
  state.counters["queue_pops_per_event"] =
      events > 0
          ? static_cast<double>(queue_pops) / static_cast<double>(events)
          : 0.0;
}
BENCHMARK(BM_SimulateAgGemmMlp1)->Unit(benchmark::kMillisecond);

// The flow-network rung: FLUX GEMM+RS at fig8 MLP-1, timing-only. Its 132
// blocks per rank push every output tile as its own transfer, so thousands
// of small flows still contend for each egress port; FLUX's swizzled tile
// order sends the ranks' pushes to different owners, so no ingress port is
// a hot spot. The network re-rates each flow on a changed port-rail once
// per simulated instant: 1.88 re-rates per flow (84.3 while every join and
// leave re-rated its port-rails; 201.6 while, in addition, all eight ranks
// pushed to one owner at a time). allocs_per_event counts
// global operator new calls during the last (warm) RunSpmd (per-block
// state is the payload's, so a timing-only run builds none);
// rerates_per_flow the rate recomputations per wire flow.
void BM_SimulateFluxGemmRsMlp1(benchmark::State& state) {
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t rerated = 0;
  uint64_t flows = 0;
  for (auto _ : state) {
    rt::World world = bench::MakeH800x8();
    const int64_t k = 11008 / 8;
    baselines::FluxGemmRs kernel(
        world, baselines::FluxConfig{8192, k, 4096, bench::CoarseTiling(k)});
    const uint64_t allocs0 = HeapAllocations();
    const sim::TimeNs t = world.RunSpmd(
        [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
    allocs = HeapAllocations() - allocs0;
    benchmark::DoNotOptimize(t);
    events = world.sim().processed_events();
    rerated = world.intra_fabric().rerated_flows() +
              world.inter_fabric().rerated_flows();
    flows = world.intra_fabric().total_flows() +
            world.inter_fabric().total_flows();
    state.counters["sim_ms"] = static_cast<double>(t) / 1e6;
    state.counters["events"] = static_cast<double>(events);
  }
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0.0;
  state.counters["rerates_per_flow"] =
      flows > 0 ? static_cast<double>(rerated) / static_cast<double>(flows)
                : 0.0;
}
BENCHMARK(BM_SimulateFluxGemmRsMlp1)->Unit(benchmark::kMillisecond);

void BM_SimulateAllGather8(benchmark::State& state) {
  for (auto _ : state) {
    rt::World world(sim::MachineSpec::H800x8(), rt::ExecMode::kTimingOnly);
    comm::SymTensor shards, outs;
    for (int r = 0; r < 8; ++r) {
      shards.push_back(Tensor::Alloc(world.device(r), "s", {1024, 4096},
                                     DType::kBF16));
      outs.push_back(Tensor::Alloc(world.device(r), "o", {8192, 4096},
                                   DType::kBF16));
    }
    const sim::TimeNs t =
        world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
          co_await comm::AllGather(ctx, shards, outs);
        });
    benchmark::DoNotOptimize(t);
    state.counters["sim_ms"] = static_cast<double>(t) / 1e6;
  }
}
BENCHMARK(BM_SimulateAllGather8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tilelink

BENCHMARK_MAIN();
