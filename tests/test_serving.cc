// Serving-layer tests.
//
// 1. Traffic generator: bitwise seed-determinism, range/ordering invariants.
// 2. Shape bucketing: rounds up only, idempotent, zero axes preserved.
// 3. Continuous-batching scheduler: every request finishes exactly once,
//    slot/prefill budgets hold on every step, token conservation, bitwise
//    deterministic schedules, oversized prompts admitted alone.
// 4. E2eEstimator::ServingStepTime: ragged decode widths m = 1..32 (dense
//    and MoE) route through the padded fused kernels without infeasible
//    crashes, tuned and untuned, tuned never slower than untuned defaults.
// 5. Measured costs: a tuned estimator times a config its own process's
//    search measured by the cached cost and re-simulates one loaded from a
//    file or Put by hand, with bitwise equal answers either way; each cold
//    cache's document is pinned by its FNV-1a-64 hash.
// 6. ConfigService / TunedConfigCache: stats aggregation, tuned-vs-seed
//    geomean >= 1, serialization of the new seed_cost/full_evals fields,
//    and old-format cache files still loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "models/model_zoo.h"
#include "models/transformer.h"
#include "serving/config_service.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/shape_bucket.h"
#include "serving/traffic_gen.h"
#include "tilelink/builder/tuned_config_cache.h"

namespace tilelink::serving {
namespace {

// ---------------------------------------------------------------------- //
// Traffic generator
// ---------------------------------------------------------------------- //

TrafficConfig SmallTraffic(uint64_t seed) {
  TrafficConfig cfg;
  cfg.seed = seed;
  cfg.num_requests = 64;
  cfg.num_models = 3;
  return cfg;
}

TEST(TrafficGenTest, SameSeedIsBitwiseIdentical) {
  const std::vector<Request> a = GenerateTraffic(SmallTraffic(7));
  const std::vector<Request> b = GenerateTraffic(SmallTraffic(7));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  EXPECT_EQ(TraceString(a), TraceString(b));
}

TEST(TrafficGenTest, DifferentSeedsDiffer) {
  EXPECT_NE(TraceString(GenerateTraffic(SmallTraffic(7))),
            TraceString(GenerateTraffic(SmallTraffic(8))));
}

TEST(TrafficGenTest, DrawsRespectConfigRanges) {
  const TrafficConfig cfg = SmallTraffic(3);
  const std::vector<Request> reqs = GenerateTraffic(cfg);
  ASSERT_EQ(reqs.size(), static_cast<std::size_t>(cfg.num_requests));
  sim::TimeNs prev_arrival = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    EXPECT_EQ(r.id, static_cast<int64_t>(i));  // numbered in arrival order
    EXPECT_GE(r.arrival, prev_arrival);        // nondecreasing arrivals
    prev_arrival = r.arrival;
    EXPECT_GE(r.model_index, 0);
    EXPECT_LT(r.model_index, cfg.num_models);
    EXPECT_GE(r.prompt_tokens, cfg.min_prompt);
    EXPECT_LE(r.prompt_tokens, cfg.max_prompt);
    EXPECT_GE(r.gen_tokens, cfg.min_gen);
    EXPECT_LE(r.gen_tokens, cfg.max_gen);
  }
  // The Poisson-like gaps should actually spread the trace out: the last
  // arrival is far from zero and not all gaps are equal.
  EXPECT_GT(reqs.back().arrival, cfg.mean_interarrival);
}

// ---------------------------------------------------------------------- //
// Shape bucketing
// ---------------------------------------------------------------------- //

TEST(ShapeBucketTest, BucketUpCoversWithPowersOfTwo) {
  EXPECT_EQ(BucketUp(1, 16), 16);
  EXPECT_EQ(BucketUp(16, 16), 16);
  EXPECT_EQ(BucketUp(17, 16), 32);
  EXPECT_EQ(BucketUp(100, 16), 128);
  EXPECT_EQ(BucketUp(5, 1), 8);
}

TEST(ShapeBucketTest, NeverShrinksAndPreservesZeroAxes) {
  const BucketPolicy policy;
  for (int64_t prefill : {0LL, 1LL, 17LL, 300LL, 2048LL}) {
    for (int64_t decode : {0LL, 1LL, 3LL, 32LL}) {
      if (prefill == 0 && decode == 0) continue;
      models::ServingStep s{prefill, decode, decode > 0 ? 777 : 0};
      const models::ServingStep b = BucketStep(s, policy);
      EXPECT_GE(b.prefill_tokens, s.prefill_tokens);
      EXPECT_GE(b.decode_requests, s.decode_requests);
      EXPECT_GE(b.kv_len, s.kv_len);
      // A decode-only step must not grow a phantom prefill (and vice
      // versa): zero axes stay zero.
      EXPECT_EQ(b.prefill_tokens == 0, s.prefill_tokens == 0);
      EXPECT_EQ(b.decode_requests == 0, s.decode_requests == 0);
      // Idempotent: a bucketed shape is its own bucket, so near-miss raw
      // shapes converge to one cache key.
      EXPECT_EQ(BucketStep(b, policy), b);
    }
  }
}

// ---------------------------------------------------------------------- //
// Continuous-batching scheduler
// ---------------------------------------------------------------------- //

// Constant step cost keeps schedule checks independent of the estimator.
sim::TimeNs FlatCost(const models::ServingStep&) { return sim::Ms(1); }

TEST(SchedulerTest, EveryRequestFinishesAndBudgetsHold) {
  TrafficConfig tcfg = SmallTraffic(11);
  tcfg.num_models = 1;
  const std::vector<Request> reqs = GenerateTraffic(tcfg);
  SchedulerConfig cfg;
  cfg.max_running = 4;
  cfg.max_step_prefill = 1024;
  ContinuousBatchScheduler sched(cfg, reqs);
  const std::vector<RequestOutcome> out = sched.Run(FlatCost);

  ASSERT_EQ(out.size(), reqs.size());
  int64_t want_tokens = 0;
  for (const Request& r : reqs) want_tokens += r.gen_tokens;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, static_cast<int64_t>(i));  // sorted by id, no dups
    EXPECT_GE(out[i].admitted, out[i].arrival);
    EXPECT_GT(out[i].finished, out[i].admitted);
    EXPECT_GT(out[i].latency(), 0);
  }
  int64_t got_tokens = 0;
  sim::TimeNs prev_end = 0;
  for (const StepRecord& s : sched.steps()) {
    EXPECT_GE(s.start, prev_end);  // steps never overlap
    prev_end = s.start + s.cost;
    EXPECT_GT(s.cost, 0);
    EXPECT_GT(s.shape.prefill_tokens + s.shape.decode_requests, 0);
    EXPECT_LE(s.shape.decode_requests, cfg.max_running);
    // The prefill budget holds whenever a step packs more than one prompt
    // (a single oversized prompt is legitimately admitted alone).
    if (s.admitted > 1) {
      EXPECT_LE(s.shape.prefill_tokens, cfg.max_step_prefill);
    }
    // Token conservation: fresh prefills emit their first token, every
    // decoder emits one.
    got_tokens += s.admitted + s.shape.decode_requests;
  }
  EXPECT_EQ(got_tokens, want_tokens);
}

TEST(SchedulerTest, ScheduleIsDeterministic) {
  const std::vector<Request> reqs = GenerateTraffic(SmallTraffic(5));
  SchedulerConfig cfg;
  auto run = [&] {
    ContinuousBatchScheduler sched(cfg, reqs);
    sched.Run(FlatCost);
    return sched.steps();
  };
  const std::vector<StepRecord> a = run();
  const std::vector<StepRecord> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shape, b[i].shape) << i;
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << i;
    EXPECT_EQ(a[i].admitted, b[i].admitted) << i;
    EXPECT_EQ(a[i].finished, b[i].finished) << i;
  }
}

TEST(SchedulerTest, OversizedPromptIsAdmittedAloneAndNeverSplit) {
  // Request 1's prompt exceeds the whole budget: it must wait for a
  // prefill-empty step and then be admitted alone (prompts are atomic).
  std::vector<Request> reqs;
  reqs.push_back(Request{0, 0, 0, 100, 2});
  reqs.push_back(Request{1, 0, 0, 5000, 2});
  reqs.push_back(Request{2, 0, 0, 200, 2});
  SchedulerConfig cfg;
  cfg.max_running = 8;
  cfg.max_step_prefill = 1024;
  ContinuousBatchScheduler sched(cfg, reqs);
  const std::vector<RequestOutcome> out = sched.Run(FlatCost);
  ASSERT_EQ(out.size(), 3u);
  for (const RequestOutcome& o : out) EXPECT_GT(o.finished, 0);
  bool saw_oversized = false;
  for (const StepRecord& s : sched.steps()) {
    if (s.shape.prefill_tokens >= 5000) {
      saw_oversized = true;
      EXPECT_EQ(s.shape.prefill_tokens, 5000);  // admitted alone
    }
  }
  EXPECT_TRUE(saw_oversized);
}

TEST(SchedulerTest, IdleReplicaJumpsToNextArrival) {
  std::vector<Request> reqs;
  reqs.push_back(Request{0, 0, sim::Ms(100), 64, 1});
  ContinuousBatchScheduler sched(SchedulerConfig{}, reqs);
  const std::vector<RequestOutcome> out = sched.Run(FlatCost);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].admitted, sim::Ms(100));  // no busy-wait steps before
  EXPECT_EQ(sched.steps().size(), 1u);
}

// ---------------------------------------------------------------------- //
// ServingStepTime: ragged shapes through the estimator
// ---------------------------------------------------------------------- //

TEST(ServingStepTimeTest, RaggedDecodeWidthsDense) {
  models::E2eEstimator est(/*tp=*/8, /*batch=*/1, /*seq=*/1,
                           /*two_node=*/false);
  const models::ModelConfig model = models::GetModel("GPT3-6.7B");
  for (int64_t m = 1; m <= 32; ++m) {
    models::ServingStep step{0, m, 512};
    const sim::TimeNs tl = est.ServingStepTime(model, models::Method::kTileLink,
                                               step);
    const sim::TimeNs torch =
        est.ServingStepTime(model, models::Method::kTorch, step);
    EXPECT_GT(tl, 0) << "decode width " << m;
    EXPECT_GT(torch, 0) << "decode width " << m;
  }
}

TEST(ServingStepTimeTest, RaggedDecodeWidthsMoe) {
  models::E2eEstimator est(8, 1, 1, false);
  const models::ModelConfig model = models::GetModel("Mixtral-8x7B");
  ASSERT_TRUE(model.is_moe);
  for (int64_t m = 1; m <= 32; ++m) {
    const sim::TimeNs t = est.ServingStepTime(
        model, models::Method::kTileLink, models::ServingStep{0, m, 1024});
    EXPECT_GT(t, 0) << "decode width " << m;
  }
}

// 11520 prompt tokens at TP8 are 1440 rows per rank, where the MoE part-2
// seed's RS chunk is 160 rows: its topk-reduce chunk must divide that (80
// rows, not 128), or the untuned step would add an infeasible time.
TEST(ServingStepTimeTest, UntunedMoeStepWithA160RowRsChunk) {
  models::E2eEstimator est(8, 1, 1, false);
  const sim::TimeNs t = est.ServingStepTime(
      models::GetModel("Mixtral-8x7B"), models::Method::kTileLink,
      models::ServingStep{11520, 0, 0});
  EXPECT_GT(t, 0);
}

TEST(ServingStepTimeTest, MixedPrefillDecodeAndMemoization) {
  models::E2eEstimator est(8, 1, 1, false);
  const models::ModelConfig model = models::GetModel("LLaMA2-13B");
  const models::ServingStep step{300, 7, 777};
  const sim::TimeNs first =
      est.ServingStepTime(model, models::Method::kTileLink, step);
  EXPECT_GT(first, 0);
  // Memoized: the identical step shape costs the identical time.
  EXPECT_EQ(est.ServingStepTime(model, models::Method::kTileLink, step),
            first);
}

// Attaching a ConfigService routes every serving component through tuned
// configs: never slower than the hand-picked defaults, fully reproducible
// across a fresh estimator on the same service (warm hits only).
TEST(ServingStepTimeTest, TunedViaConfigServiceNeverSlowerAndWarmHits) {
  const models::ModelConfig model = models::GetModel("GPT3-6.7B");
  const models::ServingStep step = BucketStep(models::ServingStep{48, 5, 600});

  models::E2eEstimator untuned(8, 1, 1, false);
  const sim::TimeNs default_time =
      untuned.ServingStepTime(model, models::Method::kTileLink, step);

  ConfigService service(ConfigService::Options{0, /*tune_threads=*/4});
  models::E2eEstimator cold(8, 1, 1, false);
  service.Attach(&cold);
  const sim::TimeNs tuned_time =
      cold.ServingStepTime(model, models::Method::kTileLink, step);
  EXPECT_GT(tuned_time, 0);
  EXPECT_LE(tuned_time, default_time);  // seeds anchor every search
  const int64_t cold_misses = service.Stats().misses;
  EXPECT_GT(cold_misses, 0);

  // A fresh replica against the same service reproduces the time without a
  // single new search.
  models::E2eEstimator warm(8, 1, 1, false);
  service.Attach(&warm);
  EXPECT_EQ(warm.ServingStepTime(model, models::Method::kTileLink, step),
            tuned_time);
  const ConfigService::Snapshot stats = service.Stats();
  EXPECT_EQ(stats.misses, cold_misses);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.hit_rate, 0.0);
  EXPECT_LE(stats.hit_rate, 1.0);
  EXPECT_GE(stats.tuned_speedup_geomean, 1.0);  // seed-anchored searches
  EXPECT_GT(stats.entries, 0);
  // Searches whose seed reached full fidelity record its cost and their
  // full-sim count in the entry.
  bool saw_seed_cost = false;
  for (const auto& [key, entry] : service.cache().Entries()) {
    EXPECT_GT(entry.cost, 0) << key;
    if (entry.seed_cost > 0) {
      saw_seed_cost = true;
      EXPECT_LE(entry.cost, entry.seed_cost) << key;
      EXPECT_GT(entry.full_evals, 0) << key;
    }
  }
  EXPECT_TRUE(saw_seed_cost);
}

// ---------------------------------------------------------------------- //
// RunServing: end-to-end reproducibility
// ---------------------------------------------------------------------- //

TEST(RunServingTest, SameSeedSameTraceUntuned) {
  ServingOptions opts;
  opts.models = {models::GetModel("GPT3-6.7B")};
  opts.traffic.seed = 2;
  opts.traffic.num_requests = 6;
  opts.traffic.min_prompt = 64;
  opts.traffic.max_prompt = 256;
  opts.traffic.min_gen = 2;
  opts.traffic.max_gen = 6;
  auto run = [&] {
    models::E2eEstimator est(8, 1, 1, false);
    return RunServing(opts, &est);
  };
  const ServingResult a = run();
  const ServingResult b = run();
  EXPECT_EQ(a.total_requests, 6);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_GT(a.p50_latency, 0);
  EXPECT_GE(a.p99_latency, a.p50_latency);
}

TEST(RunServingTest, PercentileNearestRank) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile({30, 10, 20}, 0.0), 10);
  EXPECT_EQ(Percentile({30, 10, 20}, 0.5), 20);
  EXPECT_EQ(Percentile({30, 10, 20}, 1.0), 30);
}

// ---------------------------------------------------------------------- //
// Config service stats + cache serialization
// ---------------------------------------------------------------------- //

tl::TunedEntry EntryWithCost(sim::TimeNs cost, sim::TimeNs seed_cost = 0,
                             int full_evals = 0) {
  tl::TunedEntry e;
  e.config.comm_tile_m = 128;
  e.cost = cost;
  e.seed_cost = seed_cost;
  e.full_evals = full_evals;
  return e;
}

TEST(ConfigServiceTest, SpeedupGeomeanFromEntries) {
  ConfigService service(ConfigService::Options{});
  // 2x and 0.5x speedups cancel in the geomean; unknown seed costs (old
  // entries) are excluded rather than dragging the stat to zero.
  service.cache().Put("a", EntryWithCost(100, 200, 5));
  service.cache().Put("b", EntryWithCost(200, 100, 5));
  service.cache().Put("c", EntryWithCost(50, 0, 0));  // unknown seed cost
  const ConfigService::Snapshot stats = service.Stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_NEAR(stats.tuned_speedup_geomean, 1.0, 1e-9);
}

TEST(CacheSerializationTest, ServingFieldsRoundTrip) {
  tl::TunedConfigCache cache;
  cache.Put("k/1x2/R8.sm132.nv150", EntryWithCost(123, 456, 9));
  tl::TunedConfigCache loaded;
  ASSERT_TRUE(loaded.FromJson(cache.ToJson()));
  const tl::TunedEntry* e = loaded.Find("k/1x2/R8.sm132.nv150");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->cost, 123);
  EXPECT_EQ(e->seed_cost, 456);
  EXPECT_EQ(e->full_evals, 9);
  // Canonical: the round-trip reproduces the document byte for byte.
  EXPECT_EQ(loaded.ToJson(), cache.ToJson());
}

TEST(CacheSerializationTest, OldFormatWithoutServingFieldsStillLoads) {
  // Cache files written before seed_cost_ns/full_evals existed carry only
  // the config knobs and cost_ns; they must parse with the new fields at 0
  // ("unknown"), keeping old warm-start files usable.
  tl::TunedConfigCache cache;
  ASSERT_TRUE(cache.FromJson(
      "{ \"old/8x9/R8.sm132.nv150\": { \"bm\": 64, \"cost_ns\": 777 } }"));
  const tl::TunedEntry* e = cache.Find("old/8x9/R8.sm132.nv150");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->cost, 777);
  EXPECT_EQ(e->seed_cost, 0);
  EXPECT_EQ(e->full_evals, 0);
}

TEST(CacheSerializationTest, WallClockStatsAreNeverSerialized) {
  // warm_start/max_tune wall times are observability only: serializing them
  // would break the bitwise rerun gate on cache files.
  tl::TunedConfigCache cache;
  cache.GetOrTune("k", [] { return EntryWithCost(5, 10, 1); });
  const std::string json = cache.ToJson();
  EXPECT_EQ(json.find("warm_start"), std::string::npos);
  EXPECT_EQ(json.find("max_tune"), std::string::npos);
  EXPECT_GE(cache.stats().warm_start_ns, 0);
}


// ---------------------------------------------------------------------- //
// Measured costs: reuse what this process's searches simulated
// ---------------------------------------------------------------------- //

// The simulated times one tuned estimator call sequence returns.
using Timings = std::vector<sim::TimeNs>;
using TimeFn = std::function<Timings(models::E2eEstimator&)>;

struct EstimatorShape {
  int tp = 8;
  int64_t batch = 1;
  int64_t seq = 1;
  bool two_node = false;
};

// Runs `time` on an estimator tuned against `cache`; *resims receives how
// many cached configs it re-simulated.
Timings TimeTuned(const EstimatorShape& shape, tl::TunedConfigCache* cache,
                  const TimeFn& time, int64_t* resims) {
  models::E2eEstimator est(shape.tp, shape.batch, shape.seq, shape.two_node);
  est.EnableTuning(cache, /*tune_threads=*/4);
  const Timings t = time(est);
  *resims = est.resims();
  return t;
}

// A cold cache reuses every cost its searches measured, and an estimator
// whose cache was loaded from the same entries re-simulates every tuned
// config: both must return the same times, bitwise. Returns the cold
// cache's document.
std::string ExpectReuseMatchesResimulation(const EstimatorShape& shape,
                                           const TimeFn& time) {
  tl::TunedConfigCache cold_cache;
  int64_t cold_resims = -1;
  const Timings cold = TimeTuned(shape, &cold_cache, time, &cold_resims);
  EXPECT_GT(cold_cache.misses(), 0);
  EXPECT_EQ(cold_resims, 0);

  const std::string json = cold_cache.ToJson();
  tl::TunedConfigCache loaded_cache;
  EXPECT_TRUE(loaded_cache.FromJson(json));
  int64_t loaded_resims = -1;
  EXPECT_EQ(TimeTuned(shape, &loaded_cache, time, &loaded_resims), cold);
  EXPECT_EQ(loaded_cache.misses(), 0);
  EXPECT_GT(loaded_resims, 0);
  return json;
}

// FNV-1a-64 of a cache document. The MeasuredCostTest cases pin the hash of
// their cold cache, so every tuned config, cost, seed cost and evaluation
// count a cold run stores is pinned too: a rewiring of the searches that
// moves any of them fails here.
uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TimeFn StepTimes(const std::string& model_name) {
  return [model_name](models::E2eEstimator& est) {
    const models::ModelConfig model = models::GetModel(model_name);
    Timings t;
    for (const models::ServingStep& step :
         {BucketStep(models::ServingStep{48, 5, 600}),
          BucketStep(models::ServingStep{0, 17, 300})}) {
      t.push_back(est.ServingStepTime(model, models::Method::kTileLink, step));
    }
    return t;
  };
}

TimeFn LayerTimes(const std::string& model_name) {
  return [model_name](models::E2eEstimator& est) {
    const models::LayerBreakdown b = est.LayerTime(
        models::GetModel(model_name), models::Method::kTileLink);
    return Timings{b.attn_block, b.ffn_block, b.dp_sync};
  };
}

TEST(MeasuredCostTest, DenseStepsMatchALoadedCache) {
  const std::string json =
      ExpectReuseMatchesResimulation(EstimatorShape{}, StepTimes("GPT3-6.7B"));
  EXPECT_EQ(Fnv1a64(json), 0x2dc67cc74a67b85dull);
}

TEST(MeasuredCostTest, MoeStepsMatchALoadedCache) {
  const std::string json =
      ExpectReuseMatchesResimulation(EstimatorShape{}, StepTimes("Mixtral-8x7B"));
  EXPECT_NE(json.find("\"ag_moe/"), std::string::npos);
  EXPECT_EQ(Fnv1a64(json), 0xad9d1a1ba51fa212ull);
}

TEST(MeasuredCostTest, TwoNodeLayerMatchesALoadedCache) {
  // Data-parallel pairs across two nodes: the layer's dp-sync is tuned too.
  const std::string json = ExpectReuseMatchesResimulation(
      EstimatorShape{/*tp=*/8, /*batch=*/1, /*seq=*/256, /*two_node=*/true},
      LayerTimes("LLaMA2-7B"));
  EXPECT_NE(json.find("\"dp_sync/"), std::string::npos);
  EXPECT_EQ(Fnv1a64(json), 0xe613292deab065c5ull);
}

TEST(MeasuredCostTest, NodeSpanningTpLayerMatchesALoadedCache) {
  // TP 16 spans two nodes: the projections run the fused hierarchical
  // ag_gemm_hier kernel and gemm_rs with its NIC rail (cached under
  // gemm_hier_rs).
  const std::string json = ExpectReuseMatchesResimulation(
      EstimatorShape{/*tp=*/16, /*batch=*/1, /*seq=*/2048,
                     /*two_node=*/false},
      LayerTimes("LLaMA2-7B"));
  EXPECT_NE(json.find("\"ag_gemm_hier/"), std::string::npos);
  EXPECT_NE(json.find("\"gemm_hier_rs/"), std::string::npos);
  EXPECT_EQ(Fnv1a64(json), 0x4d92725dd5e0276aull);
}

// Every cost in `json` replaced by a wrong one, as a file from another
// build could carry.
std::string PlantWrongCosts(const std::string& json) {
  tl::TunedConfigCache planted;
  EXPECT_TRUE(planted.FromJson(json));
  for (auto [key, entry] : planted.Entries()) {
    entry.cost = 1;
    planted.Put(key, entry);
  }
  return planted.ToJson();
}

TEST(MeasuredCostTest, LoadedCostIsNeverReturned) {
  const EstimatorShape shape;
  const TimeFn time = StepTimes("GPT3-6.7B");
  tl::TunedConfigCache cold_cache;
  int64_t resims = -1;
  const Timings cold = TimeTuned(shape, &cold_cache, time, &resims);

  tl::TunedConfigCache loaded_cache;
  ASSERT_TRUE(loaded_cache.FromJson(PlantWrongCosts(cold_cache.ToJson())));
  EXPECT_EQ(TimeTuned(shape, &loaded_cache, time, &resims), cold);
  EXPECT_GT(resims, 0);
}

TEST(MeasuredCostTest, PutOverAMeasuredEntryClearsTheMark) {
  tl::TunedConfigCache cache;
  bool measured = false;
  (void)cache.GetOrTune("k", [] { return EntryWithCost(5); }, &measured);
  EXPECT_TRUE(measured);
  measured = false;
  (void)cache.GetOrTune("k", [] { return EntryWithCost(6); }, &measured);
  EXPECT_TRUE(measured);  // a hit on the searched entry
  cache.Put("k", EntryWithCost(7));
  (void)cache.GetOrTune("k", [] { return EntryWithCost(8); }, &measured);
  EXPECT_FALSE(measured);
  // FromJson over a measured key clears it too, and the mark never reaches
  // the file.
  (void)cache.GetOrTune("j", [] { return EntryWithCost(9); }, &measured);
  EXPECT_TRUE(measured);
  const std::string json = cache.ToJson();
  ASSERT_TRUE(cache.FromJson(json));
  (void)cache.GetOrTune("j", [] { return EntryWithCost(10); }, &measured);
  EXPECT_FALSE(measured);
  EXPECT_EQ(cache.ToJson(), json);

  // The estimator then re-simulates: a wrong cost Put over every measured
  // key of a cold run is never returned.
  const EstimatorShape shape;
  const TimeFn time = StepTimes("LLaMA2-13B");
  tl::TunedConfigCache run_cache;
  int64_t resims = -1;
  const Timings cold = TimeTuned(shape, &run_cache, time, &resims);
  EXPECT_EQ(resims, 0);
  for (auto [key, entry] : run_cache.Entries()) {
    entry.cost = 1;
    run_cache.Put(key, entry);
  }
  EXPECT_EQ(TimeTuned(shape, &run_cache, time, &resims), cold);
  EXPECT_GT(resims, 0);
}

}  // namespace
}  // namespace tilelink::serving
