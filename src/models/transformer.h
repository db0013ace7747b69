// End-to-end transformer timing (Figure 11): composes per-layer component
// times — sequence-parallel attention block (AG + QKV GEMM, flash core,
// out-proj GEMM + RS) and TP MLP / MoE block — by *running the simulator*
// for each unique component shape (coarse tiling keeps event counts small;
// total simulated time is tiling-invariant because tile-step cost is linear
// in FLOPs). Results are memoized per shape across models.
//
// Two TileLink config sources: the hand-picked defaults (the configs the
// paper's figures hard-code), or — after EnableTuning(cache) — per-shape
// configs from Autotuner::Search routed through a TunedConfigCache, so
// identical layers and identical shapes across models share one search and
// benchmarks can warm-start from a previous run's cache file.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "models/model_zoo.h"
#include "sim/machine_spec.h"
#include "sim/time.h"
#include "tilelink/builder/kernel_tuning.h"
#include "tilelink/builder/tuned_config_cache.h"

namespace tilelink::models {

enum class Method {
  kTorch,     // non-overlap: NCCL collectives + cuBLAS/flash kernels
  kTileLink,  // overlapped kernels from tilelink/kernels
};

struct LayerBreakdown {
  sim::TimeNs attn_block = 0;  // AG+QKV, flash core, out-proj+RS
  sim::TimeNs ffn_block = 0;   // MLP or MoE (plus shared expert if any)
  // Two-node runs only: simulated inter-node data-parallel gradient sync
  // (multinode::DpAllReduce over the NIC fabric), method-shared like the
  // flash core — both frameworks ride the same collective.
  sim::TimeNs dp_sync = 0;
  sim::TimeNs total() const { return attn_block + ffn_block + dp_sync; }
};

struct E2eResult {
  std::string model;
  sim::TimeNs torch_layer = 0;
  sim::TimeNs tilelink_layer = 0;
  sim::TimeNs torch_total = 0;
  sim::TimeNs tilelink_total = 0;
  double speedup = 0.0;
  LayerBreakdown torch_breakdown;
  LayerBreakdown tilelink_breakdown;
};

// One continuous-batching step of a serving replica: the ragged batch shape
// the scheduler feeds through the estimator. prefill_tokens are the prompt
// tokens entering this step (0 for decode-only steps); decode_requests are
// the running requests emitting one token each against a KV context of up
// to kv_len tokens. Callers on the serving path bucket these (see
// serving/shape_bucket.h) so near-miss shapes share configs.
struct ServingStep {
  int64_t prefill_tokens = 0;
  int64_t decode_requests = 0;
  int64_t kv_len = 0;

  friend bool operator==(const ServingStep&, const ServingStep&) = default;
};

class E2eEstimator {
 public:
  // tp = tensor-parallel degree. Up to 8 the TP group lives in one node; a
  // wider group (the 16-GPU TP layers) must fill whole nodes (TL_CHECKed)
  // and spans them on the NIC fabric: the column-parallel projections then
  // run ag_gemm_hier and the row-parallel ones GemmRs with its NIC rail
  // roles (the families tl::AgGemmFamily and tl::GemmRsFamily build for a
  // world spanning nodes).
  // two_node adds the inter-node data-parallel synchronization of the
  // paper's 16-GPU setup (batch doubles, per-GPU work unchanged): a
  // simulated per-layer gradient AllReduce across the node-spanning DP
  // pairs over the NIC fabric (tilelink/multinode), not a calibrated
  // constant — the Figure-11 dilution emerges from the flows.
  E2eEstimator(int tp, int64_t batch, int64_t seq, bool two_node);

  // Obtain every TileLink kernel config from Autotuner::Search through the
  // per-shape `cache` (not owned; must outlive the estimator) instead of the
  // hand-picked defaults. Each component is a tl::KernelFamily whose
  // hand-picked seed anchors its search, so a tuned component is never slower
  // than its default. A config a search in this process measured is timed by
  // its cached cost, which is that same full-fidelity simulation; a config
  // loaded from a file (or Put by hand) is re-simulated, since the code that
  // measured its cost may differ from the code now running (resims() counts
  // those). MoE layers always simulate their two tuned parts chained.
  // `tune_threads` is forwarded to every Autotuner (parallel candidate
  // evaluation; any value yields bitwise-identical tuned configs). The
  // estimator itself is thread-safe once tuning is enabled — the memo map is
  // mutex'd and the cache is internally synchronized — so independent
  // layers/models can be timed from concurrent threads against one shared
  // cache. Offline benches and the serving path run the same cold search
  // (tl::Tune on the family: full fidelity, bound-ordered and bound-pruned
  // for the families that carry a bound, after a successive-halving round
  // only for MoE shapes whose token count shrinks), so a shape tunes to the
  // same config whichever caller reaches it first.
  void EnableTuning(tl::TunedConfigCache* cache, int tune_threads = 1);
  bool tuning_enabled() const { return tuned_cache_ != nullptr; }

  LayerBreakdown LayerTime(const ModelConfig& model, Method method);
  E2eResult Run(const ModelConfig& model);

  // Per-layer time of one continuous-batching serving step. GEMM token rows
  // are padded up to the serving quantum (a multiple of 32*tp) so ragged
  // decode batches (m = 1..32) route through the same fused kernels without
  // tripping their divisibility constraints; attention is split into a
  // prefill flash core (square over the new prompt) and a decode flash core
  // (one query row per request against kv_len). Memoized per bucketed step
  // shape like every other component.
  sim::TimeNs ServingStepTime(const ModelConfig& model, Method method,
                              const ServingStep& step);

  // Cached tuned configs this estimator re-simulated because their cost
  // was not measured in this process (see EnableTuning).
  int64_t resims() const { return resims_.load(std::memory_order_relaxed); }
  // Simulations run by the searches this estimator started
  // (TuneResult::sims summed over its cache misses).
  int64_t search_sims() const {
    return search_sims_.load(std::memory_order_relaxed);
  }

 private:
  sim::TimeNs TimeAgGemm(Method method, int64_t m, int64_t k, int64_t n);
  sim::TimeNs TimeGemmRs(Method method, int64_t m, int64_t k, int64_t n);
  sim::TimeNs TimeFlashCore(int64_t bh, int64_t sq, int64_t skv, int64_t d);
  sim::TimeNs TimeMoe(Method method, const ModelConfig& model, int64_t m);
  sim::TimeNs TimeActivation(int64_t m, int64_t n);
  sim::TimeNs TimeDpSync(const ModelConfig& model);

  sim::MachineSpec Spec() const;
  sim::MachineSpec TwoNodeSpec() const;
  tl::Autotuner Tuner() const;

  // The one path every TileLink component takes. Timed(f): untuned, the
  // seed's simulation; tuned, the config cached under f.Key() (searched
  // with tl::Tune on a miss), timed by its cost when this process measured
  // it, else simulated again. Throws when the time is infeasible.
  // TunedConfig(f): just the config (the seed when untuned), for the MoE
  // layer, whose two parts simulate chained.
  sim::TimeNs Timed(const tl::KernelFamily& f);
  tl::TuneCandidate TunedConfig(const tl::KernelFamily& f);
  // GetOrTune on f.Key(); *measured receives the entry's mark.
  tl::TunedEntry Cached(const tl::KernelFamily& f, bool* measured);

  // Memoization helpers: Lookup returns true (and the memoized time) on a
  // hit; Store records the freshly simulated time. Racing Store calls for
  // one key write the same deterministic value, so last-wins is safe.
  bool Lookup(const std::string& key, sim::TimeNs* t);
  sim::TimeNs Store(const std::string& key, sim::TimeNs t);

  int tp_;
  int64_t batch_, seq_;
  bool two_node_;
  int tune_threads_ = 1;
  tl::TunedConfigCache* tuned_cache_ = nullptr;
  std::atomic<int64_t> resims_{0};
  std::atomic<int64_t> search_sims_{0};
  std::mutex cache_mu_;  // guards cache_
  std::map<std::string, sim::TimeNs> cache_;
};

}  // namespace tilelink::models
