// Serving-scale bench: continuous batching over a mixed prefill/decode
// request trace, one replica per model, with every TileLink config obtained
// online from the config service (serving/config_service.h), whose cold
// tunes run Autotuner::Search (the MLP families exactly: bound-ordered,
// bound-pruned full fidelity).
//
// Three phases, all gated:
//
//  1. Cold replica: a fresh estimator attached to an empty service runs the
//     whole trace — every unseen bucketed shape pays a cold tune.
//     Gates: p99 request latency under budget, worst single cold-tune wall
//     time under budget, tuned-vs-seed geomean speedup >= 1.
//  2. Warm replica: a second fresh estimator attached to the *same* service
//     re-runs the trace — every lookup must hit, so the combined hit rate
//     approaches the shape-sharing ratio. Gate: hit rate over both replicas
//     above threshold; the warm replica's simulated results are bitwise
//     identical to the cold one's.
//  3. Reproducibility: an independent service + estimator with the same
//     seed must produce a bitwise-identical request/step trace and
//     bitwise-identical cache contents (ToJson).
//
// Search gate: for every MLP shape the serving run actually tuned (parsed
// back out of the cache keys), the pre-wired search (TuneAgGemm /
// TuneGemmRs) is re-run against an exhaustive full-fidelity sweep of the
// same space and must match the exhaustive argmin cost on every shape — a
// check that the lower bound never prunes the argmin at real serving
// shapes. The simulations the searches ran are reported (CI gates them on
// a ceiling).
//
// Flags: --requests <n> scales the trace (CI smoke uses a small one);
// --tune-threads <n> autotuner workers; --json/--cache as usual
// (bench_common). JSON keys land under serving.* (p50/p99, hit rate,
// tuned speedup, search efficiency, the simulations the MLP searches ran,
// re-simulated cached configs).
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "serving/config_service.h"
#include "serving/serving_sim.h"
#include "tilelink/builder/kernel_tuning.h"

namespace {

using namespace tilelink;
using namespace tilelink::bench;

constexpr int kTp = 8;
// Gate budgets. Latencies are simulated (deterministic); the cold-tune
// budget is wall-clock and set loosely for slow CI machines.
constexpr double kMaxP99Ms = 60000.0;       // simulated request p99
constexpr double kMaxColdTuneMs = 10000.0;  // worst single cold search
constexpr double kMinHitRate = 0.45;        // across cold + warm replicas

serving::ServingOptions MakeOptions(int num_requests) {
  serving::ServingOptions opts;
  for (const char* name :
       {"GPT3-6.7B", "LLaMA2-13B", "LLaMA2-70B", "Mixtral-8x7B"}) {
    opts.models.push_back(models::GetModel(name));
  }
  opts.traffic.seed = 1;
  opts.traffic.num_requests = num_requests;
  opts.traffic.mean_interarrival = sim::Ms(5);
  opts.traffic.min_prompt = 64;
  opts.traffic.max_prompt = 2048;
  opts.traffic.min_gen = 8;
  opts.traffic.max_gen = 64;
  return opts;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Parses "kind/m x k x n/..." cache keys back into MLP shapes so the search
// efficiency gate searches exactly the shapes the serving run tuned.
struct MlpKeyShape {
  std::string kind;
  tl::MlpPartShape shape;
};

std::vector<MlpKeyShape> MlpShapesFromCache(
    const tl::TunedConfigCache& cache) {
  std::vector<MlpKeyShape> out;
  for (const auto& [key, entry] : cache.Entries()) {
    const std::size_t slash = key.find('/');
    if (slash == std::string::npos) continue;
    const std::string kind = key.substr(0, slash);
    if (kind != "ag_gemm" && kind != "gemm_rs") continue;
    const std::size_t end = key.find('/', slash + 1);
    if (end == std::string::npos) continue;
    long long d[3] = {0, 0, 0};
    if (std::sscanf(key.substr(slash + 1, end - slash - 1).c_str(),
                    "%lldx%lldx%lld", &d[0], &d[1], &d[2]) != 3) {
      continue;
    }
    out.push_back(MlpKeyShape{kind, tl::MlpPartShape{d[0], d[1], d[2]}});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report(argc, argv);
  int num_requests = 48;
  int tune_threads = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--requests") {
      num_requests = std::max(1, std::atoi(argv[i + 1]));
    }
    if (std::string(argv[i]) == "--tune-threads") {
      tune_threads = std::max(1, std::atoi(argv[i + 1]));
    }
  }
  const serving::ServingOptions opts = MakeOptions(num_requests);
  bool ok = true;

  // Phase 1: cold replica — every unseen shape pays a cold tune.
  serving::ConfigService service(
      serving::ConfigService::Options{0, tune_threads});
  models::E2eEstimator cold(kTp, /*batch=*/1, /*seq=*/1, /*two_node=*/false);
  service.Attach(&cold);
  auto t0 = std::chrono::steady_clock::now();
  const serving::ServingResult res = serving::RunServing(opts, &cold);
  const double cold_s = Seconds(t0);
  const serving::ConfigService::Snapshot cold_snap = service.Stats();

  std::printf("=== serving: continuous batching, %d requests, %zu models, "
              "TP%d ===\n",
              num_requests, opts.models.size(), kTp);
  std::printf("%-16s %9s %7s %12s %12s %12s\n", "model", "requests", "steps",
              "p50", "p99", "makespan");
  for (const serving::ModelServingResult& row : res.per_model) {
    std::printf("%-16s %9lld %7lld %10.3fms %10.3fms %10.3fms\n",
                row.model.c_str(), (long long)row.requests,
                (long long)row.steps, ToMsD(row.p50_latency),
                ToMsD(row.p99_latency), ToMsD(row.makespan));
    report.Record("serving." + row.model + ".p50_ms", ToMsD(row.p50_latency));
    report.Record("serving." + row.model + ".p99_ms", ToMsD(row.p99_latency));
    report.Record("serving." + row.model + ".steps",
                  static_cast<double>(row.steps));
  }
  std::printf("%-16s %9lld %7lld %10.3fms %10.3fms\n", "FLEET",
              (long long)res.total_requests, (long long)res.total_steps,
              ToMsD(res.p50_latency), ToMsD(res.p99_latency));
  std::printf(
      "cold replica: %.2fs wall, %lld cold tunes (%.1f ms tuning total, "
      "worst %.1f ms), %lld configs cached\n",
      cold_s, (long long)cold_snap.misses, cold_snap.warm_start_ms,
      cold_snap.max_cold_tune_ms, (long long)cold_snap.entries);

  // Phase 2: warm replica — a new estimator against the populated service.
  // Every lookup must hit, and the simulated serving results must be
  // bitwise identical (cached configs are neither re-searched nor
  // re-simulated: the cold replica's searches measured their costs in this
  // process).
  models::E2eEstimator warm(kTp, /*batch=*/1, /*seq=*/1, /*two_node=*/false);
  service.Attach(&warm);
  t0 = std::chrono::steady_clock::now();
  const serving::ServingResult warm_res = serving::RunServing(opts, &warm);
  const double warm_s = Seconds(t0);
  const serving::ConfigService::Snapshot snap = service.Stats();
  const bool warm_identical = warm_res.trace == res.trace;
  const bool no_new_tunes = snap.misses == cold_snap.misses;
  std::printf(
      "warm replica: %.2fs wall (%.1fx cold), hit rate %.2f over both "
      "replicas, results %s, %s\n",
      warm_s, cold_s / std::max(warm_s, 1e-9), snap.hit_rate,
      warm_identical ? "IDENTICAL" : "DIVERGED",
      no_new_tunes ? "no new searches" : "UNEXPECTED cold searches");
  ok = ok && warm_identical && no_new_tunes;

  // Phase 3: independent same-seed run — bitwise trace + cache equality.
  serving::ConfigService service2(
      serving::ConfigService::Options{0, tune_threads});
  models::E2eEstimator rerun(kTp, /*batch=*/1, /*seq=*/1, /*two_node=*/false);
  service2.Attach(&rerun);
  const serving::ServingResult res2 = serving::RunServing(opts, &rerun);
  const bool deterministic = res2.trace == res.trace &&
                             service2.cache().ToJson() ==
                                 service.cache().ToJson();
  std::printf("same-seed rerun: trace+cache %s\n",
              deterministic ? "IDENTICAL (bitwise)" : "DIVERGED");
  ok = ok && deterministic;

  // Search efficiency: rebuild every MLP search the run paid for, pre-wired
  // vs exhaustive, counting full-fidelity simulator invocations directly.
  const sim::MachineSpec spec = [] {
    sim::MachineSpec s = sim::MachineSpec::H800x8();
    s.num_devices = kTp;
    return s;
  }();
  int64_t search_full = 0, search_sims = 0;
  int64_t exhaustive_full = 0;
  bool argmin_match = true;
  tl::Autotuner::Options topts;
  topts.threads = tune_threads;
  const tl::Autotuner tuner(topts);
  const std::vector<MlpKeyShape> shapes =
      MlpShapesFromCache(service.cache());
  for (const MlpKeyShape& ks : shapes) {
    const bool is_ag = ks.kind == "ag_gemm";
    const tl::TuneCandidate seed =
        is_ag ? models::DefaultAgGemmConfig(ks.shape.m, ks.shape.k, kTp)
              : models::DefaultGemmRsConfig(ks.shape.m, ks.shape.k, kTp);
    const tl::TuningSpace space = models::MlpTuningSpaceFor(ks.shape.m, kTp);
    const tl::TuneResult exhaustive = tuner.Search(
        space, seed, [&](const tl::TuneCandidate& c) {
          return is_ag ? tl::SimulateAgGemm(spec, ks.shape, c)
                       : tl::SimulateGemmRs(spec, ks.shape, c);
        });
    const tl::TuneResult tuned =
        is_ag ? tl::TuneAgGemm(spec, ks.shape, space, seed, tuner)
              : tl::TuneGemmRs(spec, ks.shape, space, seed, tuner);
    if (tuned.best_cost != exhaustive.best_cost) {
      std::printf("  search argmin mismatch on %s %lldx%lldx%lld: "
                  "%.3f ms vs exhaustive %.3f ms\n",
                  ks.kind.c_str(), (long long)ks.shape.m,
                  (long long)ks.shape.k, (long long)ks.shape.n,
                  ToMsD(tuned.best_cost), ToMsD(exhaustive.best_cost));
      argmin_match = false;
    }
    // Full-fidelity *feasible* simulations, from the deterministic serial
    // replay (infeasible candidates are rejected by a divisibility
    // pre-check before any DES run, so they cost nothing on either side).
    // These counts are bitwise thread-count-invariant, unlike raw
    // evaluator-call tallies, which would include the parallel pass's
    // timing-dependent speculation.
    search_full += static_cast<int64_t>(tuned.evaluated.size());
    // Simulations the search's serial schedule runs: one per
    // planner-distinct kernel, so canonical grouping shows up here and in
    // none of the counts above.
    search_sims += tuned.sims;
    exhaustive_full += static_cast<int64_t>(exhaustive.evaluated.size());
  }
  const double search_frac =
      exhaustive_full > 0 ? static_cast<double>(search_full) /
                                static_cast<double>(exhaustive_full)
                          : 0.0;
  std::printf(
      "search efficiency over %zu tuned MLP shapes: %lld full-fidelity "
      "candidates (%lld simulations run) vs %lld exhaustive -> %.1f%%, "
      "argmin %s on every shape\n",
      shapes.size(), (long long)search_full, (long long)search_sims,
      (long long)exhaustive_full, 100.0 * search_frac,
      argmin_match ? "matched" : "MISSED");

  report.Record("serving.p50_ms", ToMsD(res.p50_latency));
  report.Record("serving.p99_ms", ToMsD(res.p99_latency));
  report.Record("serving.requests", static_cast<double>(res.total_requests));
  report.Record("serving.steps", static_cast<double>(res.total_steps));
  report.Record("serving.cache_hit_rate", snap.hit_rate);
  report.Record("serving.cache_entries",
                static_cast<double>(cold_snap.entries));
  report.Record("serving.cold_tunes", static_cast<double>(cold_snap.misses));
  report.Record("serving.warm_start_ms", cold_snap.warm_start_ms);
  report.Record("serving.cold_tune_max_ms", cold_snap.max_cold_tune_ms);
  report.Record("serving.tuned_speedup", cold_snap.tuned_speedup_geomean);
  report.Record("serving.cold_run_s", cold_s);
  report.Record("serving.warm_run_s", warm_s);
  report.Record("serving.deterministic", deterministic ? 1.0 : 0.0);
  report.Record("serving.search_full_evals",
                static_cast<double>(search_full));
  report.Record("serving.exhaustive_full_evals",
                static_cast<double>(exhaustive_full));
  report.Record("serving.search_eval_frac", search_frac);
  report.Record("serving.search_sims", static_cast<double>(search_sims));
  // Cached configs the three replicas re-simulated: 0 while every entry
  // comes from a search in this process.
  report.Record("serving.resims",
                static_cast<double>(cold.resims() + warm.resims() +
                                    rerun.resims()));

  if (!report.cache_path().empty() &&
      service.cache().SaveFile(report.cache_path())) {
    std::printf("saved serving config cache to %s\n",
                report.cache_path().c_str());
  }
  report.WriteJson();

  if (ToMsD(res.p99_latency) > kMaxP99Ms) {
    std::printf("\nFAIL: p99 request latency %.1f ms exceeds the %.1f ms "
                "budget.\n",
                ToMsD(res.p99_latency), kMaxP99Ms);
    ok = false;
  }
  if (cold_snap.max_cold_tune_ms > kMaxColdTuneMs) {
    std::printf("\nFAIL: a cold tune took %.1f ms (budget %.1f ms per "
                "unseen shape).\n",
                cold_snap.max_cold_tune_ms, kMaxColdTuneMs);
    ok = false;
  }
  if (snap.hit_rate < kMinHitRate) {
    std::printf("\nFAIL: config-cache hit rate %.2f below the %.2f "
                "threshold.\n",
                snap.hit_rate, kMinHitRate);
    ok = false;
  }
  if (cold_snap.tuned_speedup_geomean < 1.0) {
    std::printf("\nFAIL: tuned configs regressed past their seeds (geomean "
                "%.3fx < 1).\n",
                cold_snap.tuned_speedup_geomean);
    ok = false;
  }
  if (!argmin_match) {
    std::printf("\nFAIL: the MLP search missed the exhaustive argmin on at "
                "least one tuned shape.\n");
    ok = false;
  }
  if (!ok) std::printf("\nFAIL: serving gates failed.\n");
  return ok ? 0 : 1;
}
