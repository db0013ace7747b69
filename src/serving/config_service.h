// Online config service: the serving-facing facade over TunedConfigCache.
// A replica attaches its estimator once; after that every cold config
// lookup runs the estimator's one cold search (each Tune*()'s
// Autotuner::Search: bound-pruned full fidelity, after a halving round only
// where the coarse sim shrinks the problem) and every warm lookup is a
// concurrency-safe cache hit. The service owns the eviction policy (LRU
// capacity) and aggregates the operational stats the serving bench gates:
// hit rate, cold-tune wall time and the geomean speedup of tuned configs
// over their hand-picked seeds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "models/transformer.h"
#include "tilelink/builder/tuned_config_cache.h"

namespace tilelink::serving {

class ConfigService {
 public:
  struct Options {
    std::size_t capacity = 0;  // max cached configs (0 = unbounded), LRU
    int tune_threads = 1;      // autotuner workers per cold search
    bool laddered = true;      // unread; perfbench/serving.cc still sets it
  };

  explicit ConfigService(const Options& opts) : opts_(opts) {
    cache_.SetCapacity(opts_.capacity);
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
    int64_t evictions = 0;
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
