// Online config service: the serving-facing facade over TunedConfigCache.
// A replica attaches its estimator once; after that every cold config
// lookup runs the estimator's one cold search (tl::Tune on the kernel's
// tl::KernelFamily: full fidelity, after a halving round only for MoE
// shapes of 32768+ tokens at TP8, far above a step's prefill budget) and
// every warm lookup is a concurrency-safe cache hit. The cache keeps every
// config it stores. The service aggregates the operational stats the
// serving bench gates: hit rate, cold-tune wall time and the geomean
// speedup of tuned configs over their hand-picked seeds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "models/transformer.h"
#include "tilelink/builder/tuned_config_cache.h"

namespace tilelink::serving {

class ConfigService {
 public:
  struct Options {
    std::size_t capacity = 0;  // must be 0 (unbounded); see the constructor
    int tune_threads = 1;      // autotuner workers per cold search
    bool laddered = true;      // unread; perfbench/serving.cc still sets it
  };

  // The cache has no eviction; `capacity` stays only because
  // perfbench/serving.cc aggregate-initializes Options.
  explicit ConfigService(const Options& opts) : opts_(opts) {
    TL_CHECK_MSG(opts_.capacity == 0,
                 "ConfigService::Options::capacity must be 0 (no eviction)");
  }

  tl::TunedConfigCache& cache() { return cache_; }
  const tl::TunedConfigCache& cache() const { return cache_; }

  // Routes every tuned-config lookup of `est` (not owned; must not outlive
  // this service) through the cache with this service's tuning policy.
  void Attach(models::E2eEstimator* est) {
    est->EnableTuning(&cache_, opts_.tune_threads);
  }

  struct Snapshot {
    int64_t entries = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    double hit_rate = 0.0;          // hits / lookups (0 when no lookups)
    double warm_start_ms = 0.0;     // total cold-tune wall time
    double max_cold_tune_ms = 0.0;  // worst single cold-tune wall time
    // Geomean of seed_cost / best_cost over the entries whose seed reached
    // full fidelity unpruned (entries with seed_cost 0 are skipped). >= 1.0
    // by construction: every search is seeded, so tuned never loses to the
    // hand-picked default.
    double tuned_speedup_geomean = 1.0;
  };
  Snapshot Stats() const;

 private:
  Options opts_;
  tl::TunedConfigCache cache_;
};

}  // namespace tilelink::serving
