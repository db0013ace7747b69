// Tune-everything pipeline tests.
//
// 1. Successive halving: finds the same argmin as the exhaustive search on
//    a seeded space whose coarse scores preserve the ranking; never returns
//    worse than the seed even under an adversarial coarse evaluator; skips
//    (halves) candidates.
// 2. TunedConfigCache: hits avoid re-searching, the JSON round-trip is
//    lossless, and searches + serialization are deterministic across runs.
// 3. The per-kernel evaluators and their analytic lower bounds:
//    feasibility (including the SM-starvation rule that rejects deadlocking
//    comm claims), soundness (bound <= simulated time) and, for the exact
//    searches, argmin agreement with brute force on small machine specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compute/moe_routing.h"
#include "models/model_zoo.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/builder/tuned_config_cache.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/kernels/ag_moe.h"
#include "tilelink/kernels/moe_rs.h"
#include "tilelink/multinode/multinode_tuning.h"

namespace tilelink::tl {
namespace {

// ---------------------------------------------------------------------- //
// Successive halving
// ---------------------------------------------------------------------- //

// Deterministic synthetic landscape over the comm-tile/SM axes.
sim::TimeNs ToyCost(const TuneCandidate& c) {
  const int64_t tile_penalty = (c.comm_tile_m - 256) * (c.comm_tile_m - 256);
  const int64_t sm_penalty = (c.comm_sms - 16) * (c.comm_sms - 16) * 50;
  return 100000 + tile_penalty + sm_penalty;
}

TuningSpace ToySpace() {
  TuningSpace space;
  space.CommTileM({64, 128, 256, 512, 1024})
      .CommSms({4, 8, 16, 24, 32, 48});
  return space;
}

// A test's routing, shared with the MoE families' evaluators.
std::shared_ptr<const compute::MoeRouting> Shared(
    const compute::MoeRouting& routing) {
  return std::make_shared<const compute::MoeRouting>(routing);
}

// `family` searched over a toy space from a toy seed instead of its own.
KernelFamily Pinned(KernelFamily family, const TuningSpace& space,
                    const TuneCandidate& seed) {
  family.space = space;
  family.seed = seed;
  return family;
}

TEST(HalvingTest, MatchesExhaustiveArgminOnSeededSpace) {
  TuneCandidate base;
  base.comm = CommResource::kSmPull;  // keep the comm_sms axis live
  const Autotuner tuner;
  int full_evals = 0;
  auto eval = [&full_evals](const TuneCandidate& c) {
    ++full_evals;
    return ToyCost(c);
  };
  // Coarse scores are scaled + offset but order-preserving.
  auto coarse = [](const TuneCandidate& c) { return ToyCost(c) / 4 + 17; };

  const TuneResult exhaustive =
      tuner.Search(ToySpace(), base, [](const TuneCandidate& c) {
        return ToyCost(c);
      });
  full_evals = 0;
  const TuneResult halved =
      tuner.Search(ToySpace(), base, eval, nullptr, coarse);

  EXPECT_EQ(halved.best, exhaustive.best);
  EXPECT_EQ(halved.best_cost, exhaustive.best_cost);
  EXPECT_EQ(halved.best.comm_tile_m, 256);
  EXPECT_EQ(halved.best.comm_sms, 16);
  // The halving round must actually skip full-fidelity work.
  EXPECT_GT(halved.halved, 0);
  EXPECT_EQ(halved.coarse_evals, 31);  // 30 enumerated + out-of-space base
  EXPECT_LT(full_evals, 31);
  EXPECT_EQ(full_evals, static_cast<int>(halved.evaluated.size()));
}

TEST(HalvingTest, NeverWorseThanSeedUnderAdversarialCoarse) {
  TuneCandidate base;
  base.comm = CommResource::kSmPull;
  base.comm_tile_m = 256;
  base.comm_sms = 16;  // the seed IS the landscape argmin
  // Adversarial coarse: inverts the ranking, so the halving round keeps
  // exactly the worst candidates.
  auto coarse = [](const TuneCandidate& c) {
    return sim::TimeNs{10000000} - ToyCost(c);
  };
  const TuneResult result = Autotuner().Search(
      ToySpace(), base, [](const TuneCandidate& c) { return ToyCost(c); },
      nullptr, coarse);
  // The seed is always re-evaluated at full fidelity, so even a perfectly
  // misleading coarse round cannot push the result past it.
  EXPECT_EQ(result.best, base);
  EXPECT_EQ(result.best_cost, ToyCost(base));
}

TEST(HalvingTest, SkipsTinySpaces) {
  TuningSpace space;
  space.CommTileM({64, 128});
  TuneCandidate base;
  base.comm_tile_m = 64;
  int coarse_calls = 0;
  auto coarse = [&coarse_calls](const TuneCandidate& c) {
    ++coarse_calls;
    return ToyCost(c);
  };
  const TuneResult result = Autotuner().Search(
      space, base, [](const TuneCandidate& c) { return ToyCost(c); }, nullptr,
      coarse);
  EXPECT_EQ(coarse_calls, 0);  // below the halving floor: plain exhaustive
  EXPECT_EQ(result.coarse_evals, 0);
  EXPECT_EQ(result.evaluated.size(), 2u);
}

// Every kernel family's pre-wired search must return a config that (a)
// simulates to exactly the reported cost and (b) never loses to the seed —
// whether it searches exactly (the MLP families), halves a big enough space
// or finds the shape too small to coarsen (then the search runs plain).
TEST(HalvingTest, FullFidelityArgminNeverWorseThanSeedOnKernelSpaces) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  {
    const MlpPartShape shape{512, 1024, 128};
    TuneCandidate base;
    base.gemm = compute::GemmTiling{32, 32, 16};
    TuningSpace space;
    space.CommTileM({16, 32, 64, 128})
        .CommSms({2, 4, 8})
        .Resources({CommResource::kSmPull, CommResource::kSmPush,
                    CommResource::kDma});
    const TuneResult ag = Tune(Pinned(AgGemmFamily(spec, shape), space, base));
    EXPECT_EQ(SimulateAgGemm(spec, shape, ag.best), ag.best_cost);
    EXPECT_LE(ag.best_cost, SimulateAgGemm(spec, shape, base));
    const MlpPartShape rs_shape{512, 64, 1024};
    const TuneResult rs =
        Tune(Pinned(GemmRsFamily(spec, rs_shape), space, base));
    EXPECT_EQ(SimulateGemmRs(spec, rs_shape, rs.best), rs.best_cost);
    EXPECT_LE(rs.best_cost, SimulateGemmRs(spec, rs_shape, base));
  }
  {
    TuneCandidate base;
    base.block_q = 16;
    base.block_kv = 16;
    TuningSpace space;
    space.AttnBlocks({{16, 16}, {16, 32}, {32, 32}, {32, 64}});
    const FlashShape flash{4, 128, 256, 32};
    const TuneResult fl =
        Tune(Pinned(FlashCoreFamily(spec, flash), space, base));
    EXPECT_EQ(SimulateFlashCore(spec, flash, fl.best), fl.best_cost);
    EXPECT_LE(fl.best_cost, SimulateFlashCore(spec, flash, base));
  }
  {
    const sim::MachineSpec moe_spec = sim::MachineSpec::Test(2, 16);
    const MoeShape shape{128, 32, 32, 4, 2};
    Rng rng(7);
    const compute::MoeRouting routing =
        compute::RandomRouting(shape.m, shape.num_experts, shape.topk, rng);
    TuneCandidate base;
    base.gemm = compute::GemmTiling{16, 16, 8};
    base.comm_tile_m = 16;
    base.comm_sms = 2;
    base.comm = CommResource::kSmPull;
    base.sorted_channel_rows = 32;
    base.reduce_block_tokens = 8;
    base.reduce_sms = 2;
    TuningSpace space;
    space.CommTileM({16, 32, 64})
        .CommSms({2, 4})
        .Resources({CommResource::kSmPull, CommResource::kSmPush,
                    CommResource::kDma})
        .SortedChannelRows({32, 64})
        .ReduceBlockTokens({8, 16})
        .ReduceSms({2, 4});
    const TuneResult p1 = Tune(Pinned(
        AgMoeFamily(moe_spec, shape, Shared(routing), 7), space, base));
    EXPECT_EQ(SimulateAgMoe(moe_spec, shape, routing, p1.best), p1.best_cost);
    EXPECT_LE(p1.best_cost, SimulateAgMoe(moe_spec, shape, routing, base));
    const TuneResult p2 = Tune(Pinned(
        MoeRsFamily(moe_spec, shape, Shared(routing), 7), space, base));
    EXPECT_EQ(SimulateMoeRs(moe_spec, shape, routing, p2.best), p2.best_cost);
    EXPECT_LE(p2.best_cost, SimulateMoeRs(moe_spec, shape, routing, base));
  }
}

// ---------------------------------------------------------------------- //
// Family seeds: every factory's hand-picked seed is feasible wherever the
// e2e estimator can ask for it — per-rank row counts that are multiples of
// 32 (the serving quantum) up to 8192, at TP8 and TP16 (two nodes), over
// the zoo's projection, MLP, MoE and shared-expert shapes. An infeasible
// seed makes an untuned estimator sum Autotuner::kInfeasible and a tuned
// one search from a seed it cannot score. No simulation runs.
// ---------------------------------------------------------------------- //

TEST(FamilySeedTest, EverySeedIsFeasibleAtEveryPaddedRowCount) {
  // Feasibility never reads the routing.
  const auto no_routing = std::make_shared<const compute::MoeRouting>();
  std::vector<std::string> infeasible;
  int checked = 0;
  auto check = [&](const KernelFamily& f) {
    ++checked;
    if (!f.feasible(f.seed)) {
      infeasible.push_back(f.Key() + " seed " + f.seed.Describe());
    }
  };
  for (const int tp : {8, 16}) {
    // The estimator's TP group: one node at 8, two full nodes at 16.
    sim::MachineSpec spec = sim::MachineSpec::H800x8();
    spec.num_devices = tp;
    spec.devices_per_node = std::min(tp, spec.devices_per_node);
    sim::MachineSpec two_node = sim::MachineSpec::H800x8();
    two_node.num_devices = 2 * tp;
    two_node.devices_per_node = tp;
    for (const models::ModelConfig& model : models::Figure11Models()) {
      const int64_t h = model.hidden;
      check(multinode::DpSyncFamily(two_node,
                                    multinode::LayerGradBytes(model, tp)));
      for (int64_t per_rank = 32; per_rank <= 8192; per_rank += 32) {
        const int64_t m = per_rank * tp;
        check(AgGemmFamily(spec, {m, h, 3 * h / tp}));
        check(GemmRsFamily(spec, {m, h / tp, h}));
        check(FlashCoreFamily(
            spec, {model.heads / tp, per_rank, per_rank, model.head_dim}));
        std::vector<int64_t> mlp_widths;
        if (model.is_moe) {
          const MoeShape moe{m, h,
                             std::max<int64_t>(1, model.intermediate / tp),
                             model.num_experts, model.topk};
          check(AgMoeFamily(spec, moe, no_routing, 1234));
          check(MoeRsFamily(spec, moe, no_routing, 1234));
          if (model.shared_expert_intermediate > 0) {
            mlp_widths.push_back(model.shared_expert_intermediate / tp);
          }
        } else {
          mlp_widths.push_back(model.intermediate / tp);
        }
        for (const int64_t inner : mlp_widths) {
          check(AgGemmFamily(spec, {m, h, inner}));
          check(GemmRsFamily(spec, {m, inner, h}));
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_TRUE(infeasible.empty())
      << infeasible.size() << " of " << checked
      << " seeds are infeasible; the first: " << infeasible.front();
}

// ---------------------------------------------------------------------- //
// TunedConfigCache
// ---------------------------------------------------------------------- //

TunedEntry DistinctEntry() {
  TunedEntry e;
  e.config.gemm = compute::GemmTiling{64, 96, 32};
  e.config.comm_tile_m = 192;
  e.config.comm_sms = 12;
  e.config.comm = CommResource::kSmPush;
  e.config.order = TileOrder::kNextRankFirst;
  e.config.channels_per_rank = 6;
  e.config.block_q = 48;
  e.config.block_kv = 320;
  e.config.sorted_channel_rows = 768;
  e.config.reduce_block_tokens = 96;
  e.config.reduce_sms = 24;
  e.config.nic_chunk_tiles = 12;
  e.config.staging_depth = 5;
  e.cost = 123456789;
  return e;
}

TEST(TunedConfigCacheTest, HitAvoidsReSearch) {
  TunedConfigCache cache;
  const std::string key =
      TunedConfigCache::Key("ag_gemm", {512, 64, 128},
                            sim::MachineSpec::Test(4, 16));
  int searches = 0;
  auto tune = [&searches] {
    ++searches;
    return DistinctEntry();
  };
  const TunedEntry& first = cache.GetOrTune(key, tune);
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(cache.misses(), 1);
  const TunedEntry& second = cache.GetOrTune(key, tune);
  EXPECT_EQ(searches, 1);  // hit: the search lambda must not run again
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(first, second);
  // A different shape is a different key.
  cache.GetOrTune(TunedConfigCache::Key("ag_gemm", {1024, 64, 128},
                                        sim::MachineSpec::Test(4, 16)),
                  tune);
  EXPECT_EQ(searches, 2);
}

TEST(TunedConfigCacheTest, KeySeparatesKindShapeAndMachine) {
  const sim::MachineSpec a = sim::MachineSpec::Test(4, 16);
  const sim::MachineSpec b = sim::MachineSpec::Test(8, 16);
  EXPECT_NE(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, a),
            TunedConfigCache::Key("gemm_rs", {1, 2, 3}, a));
  EXPECT_NE(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, a),
            TunedConfigCache::Key("ag_gemm", {1, 2, 4}, a));
  EXPECT_NE(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, a),
            TunedConfigCache::Key("ag_gemm", {1, 2, 3}, b));
}

TEST(TunedConfigCacheTest, KeyCarriesCalibrationHash) {
  // Recalibrating the cost model — a MachineSpec constant the shape part of
  // the key never sees — must change the key, so a warm-started cache
  // re-tunes instead of serving stale costs.
  const sim::MachineSpec base = sim::MachineSpec::Test(4, 16);
  sim::MachineSpec recal = base;
  recal.tensor_tflops *= 1.5;
  sim::MachineSpec recal_latency = base;
  recal_latency.collective_setup_latency += sim::Us(5);
  const std::string k = TunedConfigCache::Key("ag_gemm", {1, 2, 3}, base);
  EXPECT_NE(k, TunedConfigCache::Key("ag_gemm", {1, 2, 3}, recal));
  EXPECT_NE(k, TunedConfigCache::Key("ag_gemm", {1, 2, 3}, recal_latency));
  // Same spec -> stable key (and a cache round-trip preserves the entry
  // under it).
  EXPECT_EQ(k, TunedConfigCache::Key("ag_gemm", {1, 2, 3}, base));
  EXPECT_NE(CostCalibrationHash(base), CostCalibrationHash(recal));

  TunedConfigCache cache;
  cache.Put(k, DistinctEntry());
  TunedConfigCache loaded;
  ASSERT_TRUE(loaded.FromJson(cache.ToJson()));
  const TunedEntry* e =
      loaded.Find(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, base));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(*e, DistinctEntry());
  // The recalibrated machine misses: its key differs.
  EXPECT_EQ(loaded.Find(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, recal)),
            nullptr);
  // Node topology is part of the key: 2x8 and 4x4 sixteen-device machines
  // must not share entries (dp_sync tunes on the node layout).
  sim::MachineSpec two_by_eight = base;
  two_by_eight.num_devices = 16;
  two_by_eight.devices_per_node = 8;
  sim::MachineSpec four_by_four = base;
  four_by_four.num_devices = 16;
  four_by_four.devices_per_node = 4;
  EXPECT_NE(TunedConfigCache::Key("dp_sync", {1}, two_by_eight),
            TunedConfigCache::Key("dp_sync", {1}, four_by_four));
}

TEST(TunedConfigCacheTest, PruneDropsStaleCalibrationGenerations) {
  const sim::MachineSpec base = sim::MachineSpec::Test(4, 16);
  sim::MachineSpec recal = base;
  recal.tensor_tflops *= 1.5;
  TunedConfigCache cache;
  cache.Put(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, base),
            DistinctEntry());
  cache.Put(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, recal),
            DistinctEntry());
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.PruneStaleCalibration(CostCalibrationHash(base)), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Find(TunedConfigCache::Key("ag_gemm", {1, 2, 3}, base)),
            nullptr);
  // Idempotent on a clean cache.
  EXPECT_EQ(cache.PruneStaleCalibration(CostCalibrationHash(base)), 0u);
}

TEST(TunedConfigCacheTest, JsonRoundTripIsLossless) {
  TunedConfigCache cache;
  cache.Put("a/1x2/R4.sm16.nv150", DistinctEntry());
  TunedEntry defaults;  // all-default config round-trips too
  defaults.cost = 42;
  cache.Put("b/8x9x10/R8.sm132.nv150", defaults);

  TunedConfigCache loaded;
  ASSERT_TRUE(loaded.FromJson(cache.ToJson()));
  ASSERT_EQ(loaded.size(), 2u);
  const TunedEntry* a = loaded.Find("a/1x2/R4.sm16.nv150");
  const TunedEntry* b = loaded.Find("b/8x9x10/R8.sm132.nv150");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*a, DistinctEntry());
  EXPECT_EQ(*b, defaults);
  // Serialization is canonical: a round-trip reproduces the document.
  EXPECT_EQ(loaded.ToJson(), cache.ToJson());
}

TEST(TunedConfigCacheTest, RejectsMalformedJson) {
  TunedConfigCache cache;
  EXPECT_FALSE(cache.FromJson(""));
  EXPECT_FALSE(cache.FromJson("{ \"k\": { \"bm\": } }"));
  EXPECT_FALSE(cache.FromJson("{ \"k\": { \"unknown_field\": 3 } }"));
  EXPECT_FALSE(cache.FromJson("{ \"k\": { \"comm\": \"warp_specialized\" } }"));
}

TEST(TunedConfigCacheTest, JsonRejectsInt64Extremes) {
  TunedConfigCache cache;
  // INT64_MIN's magnitude overflows the positive accumulator: rejected, not
  // wrapped into garbage via `-value` UB.
  EXPECT_FALSE(
      cache.FromJson("{ \"k\": { \"cost_ns\": -9223372036854775808 } }"));
  EXPECT_FALSE(
      cache.FromJson("{ \"k\": { \"cost_ns\": 9223372036854775808 } }"));
  // INT64_MAX itself is representable and accepted.
  ASSERT_TRUE(
      cache.FromJson("{ \"k\": { \"cost_ns\": 9223372036854775807 } }"));
  const TunedEntry* e = cache.Find("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->cost, std::numeric_limits<int64_t>::max());
}

TEST(TunedConfigCacheTest, JsonRejectsTrailingGarbage) {
  TunedConfigCache cache;
  EXPECT_FALSE(cache.FromJson("{} x"));
  EXPECT_FALSE(cache.FromJson("{}{}"));
  EXPECT_FALSE(cache.FromJson("{ \"k\": { \"bm\": 64 } } trailing"));
  // Trailing whitespace is not garbage.
  EXPECT_TRUE(cache.FromJson("{}  \n"));
}

TEST(TunedConfigCacheTest, JsonFailureLeavesCacheUntouched) {
  TunedConfigCache cache;
  cache.Put("keep", DistinctEntry());
  // The first entry parses, the document then goes bad: all-or-nothing
  // means neither "keep" is clobbered nor "new" added.
  EXPECT_FALSE(cache.FromJson(
      "{ \"keep\": { \"bm\": 1 }, \"new\": { \"bogus\": 2 } }"));
  ASSERT_EQ(cache.size(), 1u);
  const TunedEntry* e = cache.Find("keep");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(*e, DistinctEntry());
}

TEST(TunedConfigCacheTest, JsonDuplicateKeysLastWins) {
  TunedConfigCache cache;
  ASSERT_TRUE(cache.FromJson(
      "{ \"k\": { \"staging_depth\": 2 }, \"k\": { \"staging_depth\": 5 } "
      "}"));
  ASSERT_EQ(cache.size(), 1u);
  const TunedEntry* e = cache.Find("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->config.staging_depth, 5);
  // Repeated fields within one entry object are last-wins too.
  ASSERT_TRUE(cache.FromJson(
      "{ \"f\": { \"staging_depth\": 2, \"staging_depth\": 7 } }"));
  EXPECT_EQ(cache.Find("f")->config.staging_depth, 7);
}

TEST(TunedConfigCacheTest, CalibrationHashNormalizesSignedZero) {
  sim::MachineSpec a = sim::MachineSpec::H800x8();
  sim::MachineSpec b = a;
  a.nic_gbps = 0.0;
  b.nic_gbps = -0.0;
  // Numerically identical calibrations must share one cache generation.
  EXPECT_EQ(CostCalibrationHash(a), CostCalibrationHash(b));
}

TEST(TunedConfigCacheTest, CalibrationHashRejectsNaN) {
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  spec.dma_efficiency = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CostCalibrationHash(spec), Error);
}

TEST(TunedConfigCacheTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tuned_cache_test.json";
  {
    TunedConfigCache cache;
    cache.Put("k/1/R4.sm16.nv150", DistinctEntry());
    ASSERT_TRUE(cache.SaveFile(path));
  }
  TunedConfigCache loaded;
  ASSERT_TRUE(loaded.LoadFile(path));
  const TunedEntry* e = loaded.Find("k/1/R4.sm16.nv150");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(*e, DistinctEntry());
  std::remove(path.c_str());
  TunedConfigCache missing;
  EXPECT_FALSE(missing.LoadFile(path));
}

// The full pipeline is deterministic: searching the same space twice yields
// identical results, and caches filled by both serialize identically.
TEST(TunedConfigCacheTest, SearchAndSerializationDeterministic) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  const MlpPartShape shape{512, 64, 128};
  TuneCandidate base;
  base.gemm = compute::GemmTiling{32, 32, 16};
  TuningSpace space;
  space.CommTileM({16, 32, 64})
      .CommSms({2, 4, 8})
      .Resources({CommResource::kSmPull, CommResource::kDma});
  const std::string key = TunedConfigCache::Key("ag_gemm", {512, 64, 128},
                                                spec);
  std::string jsons[2];
  for (std::string& json : jsons) {
    TunedConfigCache cache;
    const TunedEntry& e = cache.GetOrTune(key, [&] {
      const TuneResult r = Tune(Pinned(AgGemmFamily(spec, shape), space, base));
      return TunedEntry{r.best, r.best_cost};
    });
    EXPECT_GT(e.cost, 0);
    json = cache.ToJson();
  }
  EXPECT_EQ(jsons[0], jsons[1]);
}

// ---------------------------------------------------------------------- //
// New evaluators and bounds
// ---------------------------------------------------------------------- //

TEST(KernelTuningTest, AttentionBoundsAreSound) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  TuneCandidate base;
  TuningSpace space;
  space.AttnBlocks({{16, 16}, {16, 32}, {32, 32}, {32, 64}});
  const FlashShape flash{4, 128, 256, 32};
  const KernelFamily family = FlashCoreFamily(spec, flash);
  for (const TuneCandidate& c : space.Enumerate(base)) {
    const sim::TimeNs t = SimulateFlashCore(spec, flash, c);
    ASSERT_NE(t, Autotuner::kInfeasible) << c.Describe();
    EXPECT_LE(family.lower_bound(c), t) << c.Describe();
  }
}

// Chaining both tuned MoE parts in one world composes: the layer makespan
// is at least each part alone and at most their sum plus slack.
TEST(KernelTuningTest, MoeLayerComposition) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(2, 16);
  const MoeShape shape{128, 32, 32, 4, 2};
  Rng rng(7);
  const compute::MoeRouting routing =
      compute::RandomRouting(shape.m, shape.num_experts, shape.topk, rng);
  TuneCandidate part1;
  part1.gemm = compute::GemmTiling{16, 16, 8};
  part1.comm_tile_m = 16;
  part1.comm = CommResource::kSmPull;
  part1.comm_sms = 2;
  TuneCandidate part2 = part1;
  part2.comm = CommResource::kSmPush;
  part2.comm_tile_m = 16;
  part2.reduce_block_tokens = 8;
  part2.sorted_channel_rows = 64;
  part2.reduce_sms = 2;
  const sim::TimeNs t1 = SimulateAgMoe(spec, shape, routing, part1);
  const sim::TimeNs t2 = SimulateMoeRs(spec, shape, routing, part2);
  const sim::TimeNs layer = SimulateMoeLayer(spec, shape, routing, part1,
                                             part2);
  ASSERT_NE(t1, Autotuner::kInfeasible);
  ASSERT_NE(t2, Autotuner::kInfeasible);
  ASSERT_NE(layer, Autotuner::kInfeasible);
  EXPECT_GE(layer, std::max(t1, t2));
  EXPECT_LE(layer, t1 + t2);
}

// ---------------------------------------------------------------------- //
// Parallel search determinism
// ---------------------------------------------------------------------- //

// The determinism guarantee is bitwise: not just the argmin, but the entire
// TuneResult — evaluation order, pruned/halved/infeasible tallies, coarse
// and seed accounting — must be what the serial search produces, for every
// thread count.
// Every per-candidate field of two results: what a search reports whether
// or not it merged planner-identical candidates.
void ExpectSameScores(const TuneResult& a, const TuneResult& b) {
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_cost, b.best_cost);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].first, b.evaluated[i].first) << i;
    EXPECT_EQ(a.evaluated[i].second, b.evaluated[i].second) << i;
  }
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.halved, b.halved);
  EXPECT_EQ(a.coarse_evals, b.coarse_evals);
  EXPECT_EQ(a.seed_cost, b.seed_cost);
}

void ExpectIdenticalResults(const TuneResult& a, const TuneResult& b) {
  ExpectSameScores(a, b);
  EXPECT_EQ(a.sims, b.sims);
}

Autotuner ThreadedTuner(int threads) {
  Autotuner::Options opts;
  opts.threads = threads;
  return Autotuner(opts);
}

TEST(ParallelSearchTest, PruningDeterministicOnToyLandscape) {
  TuneCandidate base;
  base.comm = CommResource::kSmPull;
  auto eval = [](const TuneCandidate& c) { return ToyCost(c); };
  // Exact bound: the most aggressive sound bound possible, so speculative
  // pruning fires constantly across workers.
  auto bound = [](const TuneCandidate& c) { return ToyCost(c); };
  const TuneResult serial = Autotuner().Search(ToySpace(), base, eval, bound);
  EXPECT_GT(serial.pruned, 0);
  for (int threads : {2, 3, 8, 16}) {
    ExpectIdenticalResults(
        serial, ThreadedTuner(threads).Search(ToySpace(), base, eval, bound));
  }
}

TEST(ParallelSearchTest, DeterministicEvenUnderUnsoundBound) {
  // An overstating (unsound) bound makes workers speculatively skip
  // candidates the serial order would have evaluated; the replay must
  // re-evaluate them inline so the result still matches serial bitwise.
  TuneCandidate base;
  base.comm = CommResource::kSmPull;
  auto eval = [](const TuneCandidate& c) { return ToyCost(c); };
  auto unsound = [](const TuneCandidate& c) {
    return ToyCost(c) + 500000;  // wildly overstated
  };
  const TuneResult serial =
      Autotuner().Search(ToySpace(), base, eval, unsound);
  for (int threads : {2, 8}) {
    ExpectIdenticalResults(
        serial,
        ThreadedTuner(threads).Search(ToySpace(), base, eval, unsound));
  }
}

TEST(ParallelSearchTest, DeterministicOnEveryKernelTuningSpace) {
  const Autotuner parallel = ThreadedTuner(8);
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  {
    const MlpPartShape shape{512, 64, 128};
    TuneCandidate base;
    base.gemm = compute::GemmTiling{32, 32, 16};
    TuningSpace space;
    space.CommTileM({16, 32, 64, 128})
        .CommSms({2, 4, 8})
        .Resources({CommResource::kSmPull, CommResource::kSmPush,
                    CommResource::kDma});
    const KernelFamily ag = Pinned(AgGemmFamily(spec, shape), space, base);
    ExpectIdenticalResults(Tune(ag), Tune(ag, parallel));
    const KernelFamily rs = Pinned(GemmRsFamily(spec, shape), space, base);
    ExpectIdenticalResults(Tune(rs), Tune(rs, parallel));
  }
  {
    // The seed gets a full-fidelity run, so it must fit the short sequence:
    // pin it to the smallest block pair in the space.
    TuneCandidate base;
    base.block_q = 16;
    base.block_kv = 16;
    TuningSpace space;
    space.AttnBlocks({{16, 16}, {16, 32}, {32, 32}, {32, 64}});
    const FlashShape flash{4, 128, 256, 32};
    ExpectIdenticalResults(
        Tune(Pinned(FlashCoreFamily(spec, flash), space, base)),
        Tune(Pinned(FlashCoreFamily(spec, flash), space, base), parallel));
  }
  {
    const sim::MachineSpec moe_spec = sim::MachineSpec::Test(2, 16);
    const MoeShape shape{128, 32, 32, 4, 2};
    Rng rng(7);
    const compute::MoeRouting routing =
        compute::RandomRouting(shape.m, shape.num_experts, shape.topk, rng);
    TuneCandidate base;
    base.gemm = compute::GemmTiling{16, 16, 8};
    // Keep the full-fidelity seed inside the space: the defaults (512-row
    // channels etc.) overrun this tiny MoE shape.
    base.comm_tile_m = 16;
    base.comm_sms = 2;
    base.comm = CommResource::kSmPull;
    base.sorted_channel_rows = 32;
    base.reduce_block_tokens = 8;
    base.reduce_sms = 2;
    TuningSpace space;
    space.CommTileM({16, 32, 64})
        .CommSms({2, 4})
        .Resources({CommResource::kSmPull, CommResource::kSmPush,
                    CommResource::kDma})
        .SortedChannelRows({32, 64})
        .ReduceBlockTokens({8, 16})
        .ReduceSms({2, 4});
    const KernelFamily p1 =
        Pinned(AgMoeFamily(moe_spec, shape, Shared(routing), 7), space, base);
    ExpectIdenticalResults(Tune(p1), Tune(p1, parallel));
    const KernelFamily p2 =
        Pinned(MoeRsFamily(moe_spec, shape, Shared(routing), 7), space, base);
    ExpectIdenticalResults(Tune(p2), Tune(p2, parallel));
  }
}

// The three multi-node families, each searched from its own seed over its
// own space: GEMM+RS with its NIC rail, the fused ag_gemm_hier and the DP
// gradient sync (the one with a coarse round).
TEST(ParallelSearchTest, DeterministicOnMultiNodeSpaces) {
  const Autotuner parallel = ThreadedTuner(8);
  const sim::MachineSpec spec = sim::MachineSpec::H800x16();
  const MlpPartShape shape{8192, 128, 1024};
  const KernelFamily rs = GemmRsFamily(spec, shape);
  ASSERT_EQ(rs.kind, "gemm_hier_rs");
  ExpectIdenticalResults(Tune(rs), Tune(rs, parallel));
  const KernelFamily ag = AgGemmFamily(spec, shape);
  ASSERT_EQ(ag.kind, "ag_gemm_hier");
  ExpectIdenticalResults(Tune(ag), Tune(ag, parallel));
  const KernelFamily dp = multinode::DpSyncFamily(spec, 1ull << 26);
  ExpectIdenticalResults(Tune(dp), Tune(dp, parallel));
}

TEST(ParallelSearchTest, DeterministicUnderSharedFaultPlan) {
  // Fault injection must not break the bitwise parallel-search guarantee:
  // every worker's World shares one read-only FaultPlan (per-edge ordinal
  // counters live per-Network, so the retry/failover timelines are pure
  // functions of the candidate), and the full TuneResult at 8 threads must
  // match serial exactly.
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  spec.num_devices = 4;
  spec.devices_per_node = 2;
  spec.nic_rails = 2;
  sim::FaultPlan plan;
  plan.RandomTransients("nic", /*seed=*/11, /*drop_prob=*/0.1,
                        /*spike_prob=*/0.1, /*spike_mult=*/2.0);
  plan.DegradeRail("nic", /*port=*/-1, /*rail=*/1, /*at=*/sim::Us(30),
                   /*fraction=*/0.25);
  auto eval = [&](const TuneCandidate& c) {
    multinode::HierConfig cfg = multinode::HierConfig::FromCandidate(c);
    rt::World world(spec, rt::ExecMode::kTimingOnly);
    world.set_fault_plan(&plan);
    multinode::HierAllGather ag(world, 12, 64 << 10, cfg);
    return world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
      co_await ag.Run(ctx);
    });
  };
  const TuneCandidate seed = multinode::DpSyncFamily(spec, 1 << 20).seed;
  const TuneResult serial =
      Autotuner().Search(TuningSpace::MultiNode(), seed, eval);
  ExpectIdenticalResults(
      serial, ThreadedTuner(8).Search(TuningSpace::MultiNode(), seed, eval));
}

TEST(ParallelSearchTest, VerboseUnderThreadsIsSerializedAndComplete) {
  // Smoke the serialized line sink: a verbose parallel search must not
  // interleave/crash, and still returns the serial result.
  TuneCandidate base;
  base.comm = CommResource::kSmPull;
  auto eval = [](const TuneCandidate& c) { return ToyCost(c); };
  Autotuner::Options opts;
  opts.threads = 8;
  opts.verbose = true;
  const TuneResult serial = Autotuner().Search(ToySpace(), base, eval);
  ExpectIdenticalResults(serial,
                         Autotuner(opts).Search(ToySpace(), base, eval));
}

// ---------------------------------------------------------------------- //
// Concurrent cache access
// ---------------------------------------------------------------------- //

TEST(TunedConfigCacheTest, ConcurrentGetOrTuneStress) {
  TunedConfigCache cache;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr int kKeys = 16;
  std::atomic<int> tunes{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache, &tunes, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "k/" + std::to_string((i * 7 + t) % kKeys);
        bool measured = false;
        const TunedEntry e = cache.GetOrTune(
            key,
            [&tunes] {
              ++tunes;
              return DistinctEntry();
            },
            &measured);
        EXPECT_EQ(e, DistinctEntry());
        EXPECT_TRUE(measured);  // every entry here came from a search
        if (i % 32 == 0) {
          // Mix in readers so serialization races with get/put.
          (void)cache.ToJson();
          (void)cache.size();
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  // Racing misses may each run the (deterministic) search, but the stored
  // entries and the final cache are exactly the serial ones.
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  EXPECT_GE(tunes.load(), kKeys);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kIters);
  for (int k = 0; k < kKeys; ++k) {
    const TunedEntry* e = cache.Find("k/" + std::to_string(k));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(*e, DistinctEntry());
  }
}

// ---------------------------------------------------------------------- //
// Canonical grouping: candidates the planner builds identically simulate
// bitwise alike, and a search that merges them reports exactly what an
// ungrouped search reports while running fewer simulations.
// ---------------------------------------------------------------------- //

struct KernelRun {
  sim::TimeNs makespan = 0;
  uint64_t events = 0;
  friend bool operator==(const KernelRun&, const KernelRun&) = default;
};

template <typename Kernel, typename Config, typename... Extra>
KernelRun RunKernel(const sim::MachineSpec& spec, const Config& cfg,
                    const Extra&... extra) {
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  Kernel kernel(world, cfg, extra...);
  const sim::TimeNs t = world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
  return KernelRun{t, world.sim().processed_events()};
}

// The AG+GEMM and MoE kernel configs a candidate builds (what the families'
// evaluators run), for the tests that build the kernels themselves.
AgGemmConfig AgGemmCfg(const MlpPartShape& shape, const TuneCandidate& c) {
  AgGemmConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.k;
  cfg.n = shape.n;
  cfg.gemm = c.gemm;
  cfg.comm_tile_m = c.comm_tile_m;
  cfg.channels_per_rank = c.channels_per_rank;
  cfg.comm = c.comm;
  cfg.comm_sms = c.comm_sms;
  cfg.order = c.order;
  return cfg;
}

AgMoeConfig AgMoeCfg(const MoeShape& shape, const TuneCandidate& c) {
  AgMoeConfig cfg;
  cfg.m = shape.m;
  cfg.hidden = shape.hidden;
  cfg.n = shape.inner;
  cfg.num_experts = shape.num_experts;
  cfg.topk = shape.topk;
  cfg.gemm = c.gemm;
  cfg.comm_tile_m = c.comm_tile_m;
  cfg.channels_per_rank = c.channels_per_rank;
  cfg.comm = c.comm;
  cfg.comm_sms = c.comm_sms;
  return cfg;
}

MoeRsConfig MoeRsCfg(const MoeShape& shape, const TuneCandidate& c) {
  MoeRsConfig cfg;
  cfg.m = shape.m;
  cfg.k = shape.inner;
  cfg.hidden = shape.hidden;
  cfg.num_experts = shape.num_experts;
  cfg.topk = shape.topk;
  cfg.gemm = c.gemm;
  cfg.sorted_channel_rows = c.sorted_channel_rows;
  cfg.reduce_block_tokens = c.reduce_block_tokens;
  cfg.reduce_sms = c.reduce_sms;
  cfg.rs_block_m = c.comm_tile_m;
  cfg.comm_sms = c.comm_sms;
  cfg.dma_push = c.comm == CommResource::kDma;
  return cfg;
}

// Groups `candidates` by `canonical` and simulates every member of every
// group with two or more members: each must reproduce its group's first
// member bitwise (makespan and processed events). Infeasible candidates
// are their own canonical form, so merged groups are all feasible. Returns
// the number of candidates merged into an earlier one.
int ExpectCanonicalGroupsSimulateAlike(
    const std::vector<TuneCandidate>& candidates,
    const std::function<TuneCandidate(const TuneCandidate&)>& canonical,
    const std::function<KernelRun(const TuneCandidate&)>& run) {
  std::vector<TuneCandidate> keys;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const TuneCandidate key = canonical(candidates[i]);
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      groups.push_back({i});
    } else {
      groups[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }
  int merged = 0;
  for (const std::vector<std::size_t>& g : groups) {
    if (g.size() < 2) continue;
    const KernelRun lead = run(candidates[g[0]]);
    for (std::size_t j = 1; j < g.size(); ++j) {
      ++merged;
      EXPECT_EQ(run(candidates[g[j]]), lead)
          << candidates[g[j]].Describe() << " vs "
          << candidates[g[0]].Describe();
    }
  }
  return merged;
}

TEST(CanonicalTest, MlpCanonicalEqualCandidatesSimulateAlike) {
  const sim::MachineSpec spec = sim::MachineSpec::H800x8();
  // Two serving shapes (ServingMlp space) and a training shape (Mlp), each
  // family's own seed and space.
  for (const int64_t m : {int64_t{256}, int64_t{2048}, int64_t{32768}}) {
    const MlpPartShape shape{m, 1024, 1024};
    const KernelFamily ag_family = AgGemmFamily(spec, shape);
    const int ag = ExpectCanonicalGroupsSimulateAlike(
        ag_family.space.Enumerate(ag_family.seed), ag_family.canonical,
        [&](const TuneCandidate& c) {
          return RunKernel<AgGemm>(spec, AgGemmCfg(shape, c));
        });
    const KernelFamily rs_family = GemmRsFamily(spec, shape);
    const int rs = ExpectCanonicalGroupsSimulateAlike(
        rs_family.space.Enumerate(rs_family.seed), rs_family.canonical,
        [&](const TuneCandidate& c) {
          return RunKernel<GemmRs>(spec, MakeGemmRsConfig(shape, c));
        });
    EXPECT_GT(ag, 0) << "m=" << m;
    EXPECT_GT(rs, 0) << "m=" << m;
  }
}

TEST(CanonicalTest, MoeCanonicalEqualCandidatesSimulateAlike) {
  const sim::MachineSpec spec = sim::MachineSpec::H800x8();
  // 512 tokens per rank: at 128-row comm tiles channels_per_rank 0 resolves
  // to 4, so the MoePart1 channel axis merges too.
  const MoeShape shape{4096, 1024, 256, 8, 2};
  Rng rng(5);
  const compute::MoeRouting routing =
      compute::RandomRouting(shape.m, shape.num_experts, shape.topk, rng);
  TuneCandidate base;
  base.gemm = compute::GemmTiling{128, 128, 64};
  const int p1 = ExpectCanonicalGroupsSimulateAlike(
      TuningSpace::MoePart1().Enumerate(base),
      AgMoeFamily(spec, shape, Shared(routing), 5).canonical,
      [&](const TuneCandidate& c) {
        return RunKernel<AgMoe>(spec, AgMoeCfg(shape, c), routing);
      });
  const int p2 = ExpectCanonicalGroupsSimulateAlike(
      TuningSpace::MoePart2().Enumerate(base),
      MoeRsFamily(spec, shape, Shared(routing), 5).canonical,
      [&](const TuneCandidate& c) {
        return RunKernel<MoeRs>(spec, MoeRsCfg(shape, c), routing);
      });
  EXPECT_GT(p1, 0);
  EXPECT_GT(p2, 0);
}

// A search with no bound and no coarse round simulates each distinct
// feasible canonical form exactly once (infeasible candidates are rejected
// without a simulation).
TEST(CanonicalTest, SimsCountDistinctCanonicalForms) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  const MlpPartShape shape{512, 64, 128};
  TuneCandidate base;
  base.gemm = compute::GemmTiling{32, 32, 16};
  TuningSpace space;
  space.CommTileM({16, 32, 64, 128})
      .CommSms({2, 4, 8})
      .Resources({CommResource::kSmPull, CommResource::kSmPush,
                  CommResource::kDma});
  const Autotuner::CanonicalFn canonical =
      AgGemmFamily(spec, shape).canonical;
  std::vector<TuneCandidate> candidates = space.Enumerate(base);
  if (std::find(candidates.begin(), candidates.end(), base) ==
      candidates.end()) {
    candidates.push_back(base);
  }
  std::vector<TuneCandidate> forms;
  std::size_t feasible = 0;
  for (const TuneCandidate& c : candidates) {
    if (SimulateAgGemm(spec, shape, c) == Autotuner::kInfeasible) continue;
    ++feasible;
    const TuneCandidate key = canonical(c);
    if (std::find(forms.begin(), forms.end(), key) == forms.end()) {
      forms.push_back(key);
    }
  }
  ASSERT_LT(forms.size(), feasible);
  int simulated = 0;
  const TuneResult r = Autotuner().Search(
      space, base,
      [&](const TuneCandidate& c) {
        const sim::TimeNs t = SimulateAgGemm(spec, shape, c);
        if (t != Autotuner::kInfeasible) ++simulated;
        return t;
      },
      nullptr, nullptr, canonical);
  EXPECT_EQ(r.sims, static_cast<int>(forms.size()));
  EXPECT_EQ(simulated, r.sims);
  EXPECT_EQ(r.evaluated.size(), feasible);
  EXPECT_EQ(r.evaluated.size() + static_cast<std::size_t>(r.infeasible),
            candidates.size());
}

// Each family's pre-wired search reports, field for field, what the same
// search reports without a canonicalizer, and runs fewer simulations.
TEST(CanonicalTest, GroupedSearchMatchesIdentitySearch) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  const Autotuner tuner;
  // At k = 64 the AG bound prunes all but 7 candidates, each in a group of
  // its own, so only the RS search merges there; at k = 1024 nothing is
  // pruned and both merge.
  for (const MlpPartShape& shape :
       {MlpPartShape{512, 64, 128}, MlpPartShape{512, 1024, 128}}) {
    TuneCandidate base;
    base.gemm = compute::GemmTiling{32, 32, 16};
    TuningSpace space;
    space.CommTileM({16, 32, 64, 128})
        .CommSms({2, 4, 8})
        .Resources({CommResource::kSmPull, CommResource::kSmPush,
                    CommResource::kDma})
        .Orders({TileOrder::kOwnerFirst, TileOrder::kNextRankFirst});
    const KernelFamily ag_family =
        Pinned(AgGemmFamily(spec, shape), space, base);
    const TuneResult ag = Tune(ag_family);
    const TuneResult ag_plain = tuner.Search(
        space, base, ag_family.evaluate, ag_family.lower_bound);
    ExpectSameScores(ag, ag_plain);
    if (shape.k == 64) {
      EXPECT_GT(ag.pruned, 0);
      EXPECT_LE(ag.sims, ag_plain.sims);
    } else {
      EXPECT_LT(ag.sims, ag_plain.sims);
    }
    const KernelFamily rs_family =
        Pinned(GemmRsFamily(spec, shape), space, base);
    const TuneResult rs = Tune(rs_family);
    const TuneResult rs_plain = tuner.Search(
        space, base, rs_family.evaluate, rs_family.lower_bound);
    ExpectSameScores(rs, rs_plain);
    EXPECT_LT(rs.sims, rs_plain.sims);
  }
  {
    // Too few tokens to shrink, so the MoE coarse round runs this shape and
    // routing with the reduction loop collapsed. The MoE searches carry no
    // lower bound.
    const sim::MachineSpec moe_spec = sim::MachineSpec::Test(2, 16);
    const MoeShape shape{128, 32, 32, 4, 2};
    Rng rng(7);
    const compute::MoeRouting routing =
        compute::RandomRouting(shape.m, shape.num_experts, shape.topk, rng);
    TuneCandidate base;
    base.gemm = compute::GemmTiling{16, 16, 8};
    base.comm_tile_m = 16;
    base.comm_sms = 2;
    base.comm = CommResource::kSmPull;
    base.sorted_channel_rows = 32;
    base.reduce_block_tokens = 8;
    base.reduce_sms = 2;
    TuningSpace space;
    space.CommTileM({16, 32, 64})
        .CommSms({2, 4, 8})
        .Resources({CommResource::kSmPull, CommResource::kSmPush,
                    CommResource::kDma})
        .ChannelsPerRank({0, 2})
        .SortedChannelRows({32, 64})
        .ReduceBlockTokens({8, 16})
        .ReduceSms({2, 4});
    const KernelFamily p1_family =
        Pinned(AgMoeFamily(moe_spec, shape, Shared(routing), 7), space, base);
    const TuneResult p1 = Tune(p1_family);
    const TuneResult p1_plain = tuner.Search(
        space, base, p1_family.evaluate, nullptr, p1_family.coarse);
    ExpectSameScores(p1, p1_plain);
    EXPECT_LT(p1.sims, p1_plain.sims);
    const KernelFamily p2_family =
        Pinned(MoeRsFamily(moe_spec, shape, Shared(routing), 7), space, base);
    const TuneResult p2 = Tune(p2_family);
    const TuneResult p2_plain = tuner.Search(
        space, base, p2_family.evaluate, nullptr, p2_family.coarse);
    ExpectSameScores(p2, p2_plain);
    EXPECT_LT(p2.sims, p2_plain.sims);
  }
}

// ---------------------------------------------------------------------- //
// Lower-bound soundness: a bound that exceeds the simulated cost could
// prune the argmin, so every bound is checked by brute force. The four
// GEMM families search exactly (no coarse round), so their Tune() must
// also return the brute-force minimum; the two hierarchical ones carry no
// bound, so theirs simulate every candidate.
// ---------------------------------------------------------------------- //

// What Autotuner::Search scores: the enumerated space plus the seed.
std::vector<TuneCandidate> SearchedCandidates(const TuningSpace& space,
                                              const TuneCandidate& seed) {
  std::vector<TuneCandidate> out = space.Enumerate(seed);
  if (std::find(out.begin(), out.end(), seed) == out.end()) {
    out.push_back(seed);
  }
  return out;
}

void ExpectExactSearch(const TuneResult& r, sim::TimeNs brute_best) {
  EXPECT_EQ(r.best_cost, brute_best);
  EXPECT_EQ(r.coarse_evals, 0);
  EXPECT_EQ(r.halved, 0);
}

// ---------------------------------------------------------------------- //
// SM starvation: comm roles that claim every SM deadlock the kernel (the
// compute role's blocks wait for SMs the spinning comm blocks never free),
// so the feasibility rules reject them and searches skip them.
// ---------------------------------------------------------------------- //

template <typename Kernel, typename Config, typename... Extra>
bool Deadlocks(const sim::MachineSpec& spec, const Config& cfg,
               const Extra&... extra) {
  try {
    RunKernel<Kernel>(spec, cfg, extra...);
  } catch (const sim::DeadlockError&) {
    return true;
  }
  return false;
}

TEST(StarvationTest, GemmRsRingOnEverySmIsInfeasible) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  const MlpPartShape shape{2048, 64, 128};
  TuneCandidate c;
  c.gemm = compute::GemmTiling{32, 32, 16};
  c.comm_tile_m = 32;  // 16 ring chunks per rank
  c.comm = CommResource::kDma;
  c.comm_sms = 20;  // clamps to 16: every SM
  EXPECT_TRUE(Deadlocks<GemmRs>(spec, MakeGemmRsConfig(shape, c)));
  EXPECT_FALSE(GemmRsFeasible(spec, shape, c));
  EXPECT_EQ(SimulateGemmRs(spec, shape, c), Autotuner::kInfeasible);
  c.comm_sms = 15;  // one SM left for the GEMM
  EXPECT_FALSE(Deadlocks<GemmRs>(spec, MakeGemmRsConfig(shape, c)));
  EXPECT_GT(SimulateGemmRs(spec, shape, c), 0);

  // The search over a space holding the starving candidates completes.
  TuneCandidate base;
  base.gemm = c.gemm;
  base.comm_tile_m = 64;
  base.comm_sms = 8;
  TuningSpace space;
  space.CommTileM({16, 32, 64, 128})
      .CommSms({8, 20})
      .Resources({CommResource::kSmPush, CommResource::kDma});
  const TuneResult r = Tune(Pinned(GemmRsFamily(spec, shape), space, base));
  EXPECT_GT(r.infeasible, 0);
  EXPECT_EQ(r.best_cost, SimulateGemmRs(spec, shape, r.best));
}

TEST(StarvationTest, GemmRsRailRolesCountAcrossNodes) {
  // 2x4 with 8 SMs: the ring claims 4 SMs, the NIC rail 2 and the rail
  // reduce the rest, so only the whole plan's claim shows the starvation.
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  spec.devices_per_node = 4;
  spec.sms_per_device = 8;
  const MlpPartShape shape{8 * 128, 64, 128};
  TuneCandidate c;
  c.gemm = compute::GemmTiling{32, 32, 32};
  c.comm_tile_m = 32;
  c.comm = CommResource::kSmPush;
  c.comm_sms = 4;
  c.nic_chunk_tiles = 2;
  c.staging_depth = 2;
  c.reduce_sms = 2;
  EXPECT_TRUE(Deadlocks<GemmRs>(spec, MakeGemmRsConfig(shape, c)));
  EXPECT_EQ(SimulateGemmRs(spec, shape, c), Autotuner::kInfeasible);
  c.reduce_sms = 1;
  EXPECT_FALSE(Deadlocks<GemmRs>(spec, MakeGemmRsConfig(shape, c)));
  EXPECT_GT(SimulateGemmRs(spec, shape, c), 0);
}

TEST(StarvationTest, MoeRsRingPlusReduceOnEverySmIsInfeasible) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(2, 8);
  const MoeShape shape{1024, 256, 128, 8, 2};
  Rng rng(7);
  const compute::MoeRouting routing =
      compute::RandomRouting(shape.m, shape.num_experts, shape.topk, rng);
  TuneCandidate c;
  c.gemm = compute::GemmTiling{64, 64, 64};
  c.comm_tile_m = 128;  // the ring claims 4 of 8 SMs
  c.comm = CommResource::kSmPush;
  c.comm_sms = 8;
  c.reduce_block_tokens = 64;
  c.reduce_sms = 4;  // and the topk reduce the other 4
  EXPECT_TRUE(Deadlocks<MoeRs>(spec, MoeRsCfg(shape, c), routing));
  EXPECT_EQ(SimulateMoeRs(spec, shape, routing, c), Autotuner::kInfeasible);
  c.reduce_sms = 2;
  EXPECT_FALSE(Deadlocks<MoeRs>(spec, MoeRsCfg(shape, c), routing));
  EXPECT_GT(SimulateMoeRs(spec, shape, routing, c), 0);
}

TEST(LowerBoundTest, MlpBoundsAreSoundByBruteForce) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(4, 16);
  TuneCandidate base;
  base.gemm = compute::GemmTiling{32, 32, 16};
  TuningSpace space;
  space.CommTileM({16, 32, 64, 128})
      .CommSms({2, 4, 8})
      .Resources({CommResource::kSmPull, CommResource::kSmPush,
                  CommResource::kDma});
  for (const MlpPartShape& shape :
       {MlpPartShape{512, 64, 128}, MlpPartShape{1024, 128, 64}}) {
    int feasible = 0;
    sim::TimeNs ag_best = Autotuner::kInfeasible;
    sim::TimeNs rs_best = Autotuner::kInfeasible;
    const KernelFamily ag_family =
        Pinned(AgGemmFamily(spec, shape), space, base);
    const KernelFamily rs_family =
        Pinned(GemmRsFamily(spec, shape), space, base);
    for (const TuneCandidate& c : SearchedCandidates(space, base)) {
      const sim::TimeNs ag = SimulateAgGemm(spec, shape, c);
      if (ag != Autotuner::kInfeasible) {
        ++feasible;
        ag_best = std::min(ag_best, ag);
        EXPECT_LE(ag_family.lower_bound(c), ag) << c.Describe();
      }
      const sim::TimeNs rs = SimulateGemmRs(spec, shape, c);
      if (rs != Autotuner::kInfeasible) {
        rs_best = std::min(rs_best, rs);
        EXPECT_LE(rs_family.lower_bound(c), rs) << c.Describe();
      }
    }
    EXPECT_GT(feasible, 0);
    ExpectExactSearch(Tune(ag_family), ag_best);
    ExpectExactSearch(Tune(rs_family), rs_best);
  }
}

TEST(ExactSearchTest, GemmHierRsMatchesBruteForce) {
  const sim::MachineSpec spec = sim::MachineSpec::H800x16();
  const MlpPartShape shape{8192, 128, 1024};
  const KernelFamily family = GemmRsFamily(spec, shape);
  ASSERT_EQ(family.kind, "gemm_hier_rs");
  int feasible = 0;
  sim::TimeNs best = Autotuner::kInfeasible;
  for (const TuneCandidate& c : SearchedCandidates(family.space, family.seed)) {
    const sim::TimeNs t = tl::SimulateGemmRs(spec, shape, c);
    if (t == Autotuner::kInfeasible) continue;
    ++feasible;
    best = std::min(best, t);
  }
  EXPECT_GT(feasible, 0);
  const TuneResult r = Tune(family);
  ExpectExactSearch(r, best);
  EXPECT_EQ(r.pruned, 0);
}

TEST(ExactSearchTest, AgGemmHierMatchesBruteForce) {
  const sim::MachineSpec spec = sim::MachineSpec::H800x16();
  // m_per_rank = 128 (one 128-row chunk or two 64-row chunks per rank) and
  // m_per_rank = 256 (two or four): both NIC stream lengths the staging
  // window and chunk-batching knobs trade against.
  for (const MlpPartShape& shape :
       {MlpPartShape{2048, 1024, 1024}, MlpPartShape{4096, 1024, 768}}) {
    const KernelFamily family = AgGemmFamily(spec, shape);
    ASSERT_EQ(family.kind, "ag_gemm_hier");
    int feasible = 0;
    sim::TimeNs best = Autotuner::kInfeasible;
    for (const TuneCandidate& c :
         SearchedCandidates(family.space, family.seed)) {
      const sim::TimeNs t = SimulateAgGemmHier(spec, shape, c);
      if (t == Autotuner::kInfeasible) continue;
      ++feasible;
      best = std::min(best, t);
    }
    EXPECT_GT(feasible, 0);
    const TuneResult r = Tune(family);
    ExpectExactSearch(r, best);
    EXPECT_EQ(r.pruned, 0);
  }
}

TEST(KernelTuningTest, TuneFlashCorePicksLargeBlocks) {
  const sim::MachineSpec spec = sim::MachineSpec::Test(1, 16);
  const FlashShape shape{8, 512, 512, 64};
  TuneCandidate base;
  base.block_q = 16;
  base.block_kv = 16;  // deliberately poor seed
  TuningSpace space;
  space.AttnBlocks({{16, 16}, {32, 32}, {64, 64}, {128, 128}});
  const TuneResult r = Tune(Pinned(FlashCoreFamily(spec, shape), space, base));
  // Larger flash tiles keep the MMA pipeline fuller (GemmEfficiency is
  // monotone in tile area at these sizes): the tuner must escape the seed.
  EXPECT_LT(r.best_cost, SimulateFlashCore(spec, shape, base));
  EXPECT_GE(r.best.block_q * r.best.block_kv, 64 * 64);
}

}  // namespace
}  // namespace tilelink::tl
