#include "serving/config_service.h"

#include <cmath>

namespace tilelink::serving {

ConfigService::Snapshot ConfigService::Stats() const {
  Snapshot snap;
  const tl::CacheStats s = cache_.stats();
  snap.entries = static_cast<int64_t>(cache_.size());
  snap.hits = s.hits;
  snap.misses = s.misses;
  const int64_t lookups = s.hits + s.misses;
  snap.hit_rate = lookups > 0
                      ? static_cast<double>(s.hits) /
                            static_cast<double>(lookups)
                      : 0.0;
  snap.warm_start_ms = static_cast<double>(s.warm_start_ns) / 1e6;
  snap.max_cold_tune_ms = static_cast<double>(s.max_tune_ns) / 1e6;
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [key, entry] : cache_.Entries()) {
    if (entry.seed_cost <= 0 || entry.cost <= 0) continue;
    log_sum += std::log(static_cast<double>(entry.seed_cost) /
                        static_cast<double>(entry.cost));
    ++n;
  }
  snap.tuned_speedup_geomean = n > 0 ? std::exp(log_sum / n) : 1.0;
  return snap;
}

}  // namespace tilelink::serving
