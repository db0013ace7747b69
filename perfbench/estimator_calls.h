// Accounting shared by the tune_cold and serving workloads: each call into
// models::E2eEstimator is timed from outside, and the config cache's miss
// counter tells whether the call ran a search. Exports the tuner.* and
// models.* per-layer metrics and tuned_gain.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "tilelink/builder/tuned_config_cache.h"

namespace perfbench {

class EstimatorCalls {
 public:
  EstimatorCalls(const tilelink::tl::TunedConfigCache& cache, int workers)
      : cache_(cache), workers_(workers) {}

  // Runs the estimator call `fn` under a host span `span`. `shape` names
  // the call's arguments, so repeats of one shape count as memo reuse.
  template <class F>
  auto Call(Ctx& ctx, const char* span, const std::string& shape, F fn) {
    const int64_t misses = cache_.stats().misses;
    const double cpu0 = CpuS();
    Spans::Scope scope(ctx.spans, span, shape);
    auto result = fn();
    const double ms = scope.Stop() * 1e3;
    const double cpu_s = CpuS() - cpu0;
    call_s_ += ms / 1e3;
    shapes_.insert(shape);
    if (cache_.stats().misses > misses) {
      search_ms_.push_back(ms);
      search_wall_s_ += ms / 1e3;
      search_cpu_s_ += cpu_s;
    } else {
      hit_ms_.push_back(ms);
    }
    return result;
  }

  // Host time spent inside estimator calls so far.
  double call_s() const { return call_s_; }

  // tuner.* and models.{calls,hit_call_p50_ms,memo_reuse}, plus tuned_gain.
  // Also checks that no search returned a config slower than its seed.
  void Export(Ctx& ctx, PassResult* out) const {
    const tilelink::tl::CacheStats st = cache_.stats();
    double full_sims = 0;
    std::vector<double> gains;
    for (const auto& [key, e] : cache_.Entries()) {
      full_sims += e.full_evals;
      out->answers.push_back(static_cast<double>(e.cost));
      if (e.seed_cost <= 0) continue;
      ctx.Check(e.cost <= e.seed_cost, "tuned cost <= seed cost for " + key);
      gains.push_back(static_cast<double>(e.seed_cost) /
                      static_cast<double>(e.cost));
    }
    const double calls = static_cast<double>(search_ms_.size() + hit_ms_.size());
    std::map<std::string, double>& l = out->layer;
    l["tuner.searches"] = static_cast<double>(st.misses);
    l["tuner.full_sims"] = full_sims;
    l["tuner.full_sims_per_search"] =
        st.misses > 0 ? full_sims / static_cast<double>(st.misses) : 0;
    l["tuner.search_call_p50_ms"] = Median(search_ms_);
    l["tuner.search_call_max_ms"] =
        search_ms_.empty() ? 0
                           : *std::max_element(search_ms_.begin(),
                                               search_ms_.end());
    l["tuner.cpu_util"] =
        search_wall_s_ > 0 ? search_cpu_s_ / (search_wall_s_ * workers_) : 0;
    l["tuner.hit_rate"] =
        st.hits + st.misses > 0
            ? static_cast<double>(st.hits) /
                  static_cast<double>(st.hits + st.misses)
            : 0;
    l["models.calls"] = calls;
    l["models.hit_call_p50_ms"] = Median(hit_ms_);
    l["models.memo_reuse"] =
        calls > 0 ? 1.0 - static_cast<double>(shapes_.size()) / calls : 0;
    l["tuned_gain"] = Geomean(gains);
  }

 private:
  const tilelink::tl::TunedConfigCache& cache_;
  int workers_;
  double call_s_ = 0;
  std::set<std::string> shapes_;
  std::vector<double> search_ms_;  // calls that ran at least one search
  std::vector<double> hit_ms_;     // calls that ran none
  double search_wall_s_ = 0;
  double search_cpu_s_ = 0;
};

}  // namespace perfbench
