#include "models/transformer.h"

#include <algorithm>
#include <memory>

#include "baselines/mlp_baselines.h"
#include "baselines/moe_baselines.h"
#include "common/check.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "runtime/world.h"
#include "sim/cost_model.h"
#include "tilelink/multinode/multinode_tuning.h"

namespace tilelink::models {
namespace {

// Seed for the deterministic MoE routing every MoE simulation shares.
constexpr uint64_t kMoeRoutingSeed = 1234;

rt::World MakeWorld(const sim::MachineSpec& spec) {
  return rt::World(spec, rt::ExecMode::kTimingOnly);
}

// Packs a search result into a cache entry, carrying the seed anchor and
// the full-fidelity evaluation count for the serving-path speedup and
// cold-tune accounting, and adds the search's simulations to `sims`.
tl::TunedEntry EntryFromResult(const tl::TuneResult& r,
                               std::atomic<int64_t>* sims) {
  sims->fetch_add(r.sims, std::memory_order_relaxed);
  return tl::TunedEntry{r.best, r.best_cost, r.seed_cost,
                        static_cast<int>(r.evaluated.size())};
}

}  // namespace

E2eEstimator::E2eEstimator(int tp, int64_t batch, int64_t seq, bool two_node)
    : tp_(tp), batch_(batch), seq_(seq), two_node_(two_node) {
  const int per_node = sim::MachineSpec::H800x8().devices_per_node;
  TL_CHECK_MSG(tp <= per_node || tp % per_node == 0,
               StrFormat("E2eEstimator: tp=%d spans a partial node; a TP "
                         "group wider than one node must fill whole nodes "
                         "of %d",
                         tp, per_node));
}

void E2eEstimator::EnableTuning(tl::TunedConfigCache* cache,
                                int tune_threads) {
  tuned_cache_ = cache;
  tune_threads_ = std::max(1, tune_threads);
}

tl::Autotuner E2eEstimator::Tuner() const {
  tl::Autotuner::Options opts;
  opts.threads = tune_threads_;
  return tl::Autotuner(opts);
}

tl::TunedEntry E2eEstimator::Cached(const tl::KernelFamily& f,
                                    bool* measured) {
  return tuned_cache_->GetOrTune(
      f.Key(),
      [&] { return EntryFromResult(tl::Tune(f, Tuner()), &search_sims_); },
      measured);
}

sim::TimeNs E2eEstimator::Timed(const tl::KernelFamily& f) {
  sim::TimeNs t = 0;
  if (!tuning_enabled()) {
    t = f.evaluate(f.seed);
  } else {
    bool measured = false;
    const tl::TunedEntry e = Cached(f, &measured);
    if (measured) {
      t = e.cost;
    } else {
      // An entry loaded from a file: the key's calibration hash invalidates
      // cost-model recalibrations, but simulator/evaluator *code* changes
      // leave keys intact, so its stored cost is not trusted (the config may
      // then be stale-suboptimal, but never mis-timed).
      resims_.fetch_add(1, std::memory_order_relaxed);
      t = f.evaluate(e.config);
    }
  }
  TL_CHECK_MSG(t != tl::Autotuner::kInfeasible,
               StrFormat("E2eEstimator: %s config for %s is infeasible",
                         tuning_enabled() ? "the tuned" : "the seed",
                         f.Key().c_str()));
  return t;
}

tl::TuneCandidate E2eEstimator::TunedConfig(const tl::KernelFamily& f) {
  if (!tuning_enabled()) return f.seed;
  return Cached(f, nullptr).config;
}

bool E2eEstimator::Lookup(const std::string& key, sim::TimeNs* t) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  *t = it->second;
  return true;
}

sim::TimeNs E2eEstimator::Store(const std::string& key, sim::TimeNs t) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_[key] = t;
  return t;
}

sim::MachineSpec E2eEstimator::Spec() const {
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  spec.num_devices = tp_;
  // TP groups wider than one node span the NIC fabric (the 16-GPU TP
  // layers); within-node TP keeps the single-node layout.
  spec.devices_per_node = std::min(tp_, spec.devices_per_node);
  return spec;
}

sim::MachineSpec E2eEstimator::TwoNodeSpec() const {
  // Two nodes of one TP group each; DP pairs span the node boundary.
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  spec.num_devices = 2 * tp_;
  spec.devices_per_node = tp_;
  return spec;
}

sim::TimeNs E2eEstimator::TimeAgGemm(Method method, int64_t m, int64_t k,
                                     int64_t n) {
  const bool tuned = tuning_enabled() && method == Method::kTileLink;
  const std::string key = StrFormat(
      "ag/%d/%d/%lld/%lld/%lld", static_cast<int>(method), tuned ? 1 : 0,
      (long long)m, (long long)k, (long long)n);
  sim::TimeNs t = 0;
  if (Lookup(key, &t)) return t;
  const sim::MachineSpec spec = Spec();
  if (method == Method::kTorch) {
    rt::World world = MakeWorld(spec);
    baselines::MlpPartConfig cfg{m, k, n, tl::LayerTiling(k)};
    baselines::NonOverlapAgGemm bench(world, cfg);
    t = world.RunSpmd(
        [&](rt::RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  } else {
    t = Timed(tl::AgGemmFamily(spec, tl::MlpPartShape{m, k, n}));
  }
  return Store(key, t);
}

sim::TimeNs E2eEstimator::TimeGemmRs(Method method, int64_t m, int64_t k,
                                     int64_t n) {
  const bool tuned = tuning_enabled() && method == Method::kTileLink;
  const std::string key = StrFormat(
      "rs/%d/%d/%lld/%lld/%lld", static_cast<int>(method), tuned ? 1 : 0,
      (long long)m, (long long)k, (long long)n);
  sim::TimeNs t = 0;
  if (Lookup(key, &t)) return t;
  const sim::MachineSpec spec = Spec();
  if (method == Method::kTorch) {
    rt::World world = MakeWorld(spec);
    baselines::MlpPartConfig cfg{m, k, n, tl::LayerTiling(k)};
    baselines::NonOverlapGemmRs bench(world, cfg);
    t = world.RunSpmd(
        [&](rt::RankCtx& ctx) -> sim::Coro { co_await bench.Run(ctx); });
  } else {
    t = Timed(tl::GemmRsFamily(spec, tl::MlpPartShape{m, k, n}));
  }
  return Store(key, t);
}

sim::TimeNs E2eEstimator::TimeFlashCore(int64_t bh, int64_t sq, int64_t skv,
                                        int64_t d) {
  // The flash core is method-shared: both systems run the same attention
  // kernel (the paper's baseline uses the same flash library), so a tuned
  // flash config speeds up the Torch layer too — reported speedups are
  // conservative relative to a baseline stuck on the default blocks.
  const bool tuned = tuning_enabled();
  const std::string key =
      StrFormat("flash/%d/%lld/%lld/%lld/%lld", tuned ? 1 : 0, (long long)bh,
                (long long)sq, (long long)skv, (long long)d);
  sim::TimeNs t = 0;
  if (Lookup(key, &t)) return t;
  return Store(key, Timed(tl::FlashCoreFamily(Spec(),
                                              tl::FlashShape{bh, sq, skv, d})));
}

sim::TimeNs E2eEstimator::TimeActivation(int64_t m, int64_t n) {
  // Memory-bound elementwise: read a, read b, write out on ~all SMs.
  sim::MachineSpec spec = sim::MachineSpec::H800x8();
  const sim::CostModel cost(spec);
  return cost.MemoryBound(
             3ULL * static_cast<uint64_t>(m) * static_cast<uint64_t>(n) * 2,
             spec.sms_per_device) +
         spec.kernel_launch_latency;
}

sim::TimeNs E2eEstimator::TimeMoe(Method method, const ModelConfig& model,
                                  int64_t m) {
  const bool tuned = tuning_enabled() && method == Method::kTileLink;
  const std::string key =
      StrFormat("moe/%d/%d/%lld/%s", static_cast<int>(method), tuned ? 1 : 0,
                (long long)m, model.name.c_str());
  sim::TimeNs t = 0;
  if (Lookup(key, &t)) return t;
  const sim::MachineSpec spec = Spec();
  const int64_t inner = std::max<int64_t>(1, model.intermediate / tp_);
  Rng rng(kMoeRoutingSeed);
  const auto routing = std::make_shared<const compute::MoeRouting>(
      compute::RandomRouting(m, model.num_experts, model.topk, rng));
  if (method == Method::kTorch) {
    // Framework baseline: eager PyTorch MoE — a per-expert GEMM loop with
    // host-blocking index bookkeeping and unfused gather/scatter (this is
    // what torch eager actually executes; the paper's large MoE e2e gains
    // come from replacing exactly this).
    rt::World world = MakeWorld(spec);
    baselines::MoePartConfig cfg{m, model.hidden, inner, model.num_experts,
                                 model.topk, tl::LayerTiling(model.hidden)};
    baselines::MoePart1 part1(world, cfg, *routing,
                              baselines::MoeImpl::kCublas);
    baselines::MoePartConfig cfg2 = cfg;
    cfg2.gemm = tl::LayerTiling(inner);
    baselines::MoePart2 part2(world, cfg2, *routing,
                              baselines::MoeImpl::kCublas);
    t = world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
      co_await part1.Run(ctx);
      co_await part2.Run(ctx);
    });
  } else {
    const tl::MoeShape shape{m, model.hidden, inner, model.num_experts,
                             model.topk};
    const tl::TuneCandidate part1 = TunedConfig(
        tl::AgMoeFamily(spec, shape, routing, kMoeRoutingSeed));
    const tl::TuneCandidate part2 = TunedConfig(
        tl::MoeRsFamily(spec, shape, routing, kMoeRoutingSeed));
    // Both parts chained per rank inside one world, exactly as the fused
    // MoE layer executes (no global barrier between the parts).
    t = tl::SimulateMoeLayer(spec, shape, *routing, part1, part2);
    TL_CHECK_MSG(t != tl::Autotuner::kInfeasible,
                 StrFormat("E2eEstimator: the %s MoE layer config for %s at "
                           "%lld tokens is infeasible",
                           tuned ? "tuned" : "seed", model.name.c_str(),
                           (long long)m));
  }
  t += TimeActivation(m * model.topk, inner);
  return Store(key, t);
}

sim::TimeNs E2eEstimator::TimeDpSync(const ModelConfig& model) {
  // Method-shared like the flash core: both frameworks synchronize
  // gradients through the same NIC collective, so a tuned config times
  // both sides and the dilution stays a fabric property, not a framework
  // one.
  const uint64_t grad_bytes = multinode::LayerGradBytes(model, tp_);
  const bool tuned = tuning_enabled();
  const std::string key =
      StrFormat("dp/%d/%llu", tuned ? 1 : 0, (unsigned long long)grad_bytes);
  sim::TimeNs t = 0;
  if (Lookup(key, &t)) return t;
  return Store(key,
               Timed(multinode::DpSyncFamily(TwoNodeSpec(), grad_bytes)));
}

LayerBreakdown E2eEstimator::LayerTime(const ModelConfig& model,
                                       Method method) {
  LayerBreakdown out;
  const int64_t m = batch_ * seq_;
  const int64_t h = model.hidden;
  // Attention block: AG + QKV projection (column parallel), flash core on
  // local heads over the full sequence, out projection + RS (row parallel).
  const int64_t qkv_cols = 3 * h / tp_;
  out.attn_block += TimeAgGemm(method, m, h, qkv_cols);
  out.attn_block += TimeFlashCore(batch_ * model.heads / tp_, seq_, seq_,
                                  model.head_dim);
  out.attn_block += TimeGemmRs(method, m, h / tp_, h);
  // FFN block.
  if (model.is_moe) {
    out.ffn_block += TimeMoe(method, model, m);
    if (model.shared_expert_intermediate > 0) {
      const int64_t si = model.shared_expert_intermediate / tp_;
      out.ffn_block += TimeAgGemm(method, m, h, si);
      out.ffn_block += TimeActivation(m, si);
      out.ffn_block += TimeGemmRs(method, m, si, h);
    }
  } else {
    const int64_t inner = model.intermediate / tp_;
    out.ffn_block += TimeAgGemm(method, m, h, inner);
    out.ffn_block += TimeActivation(m, inner);
    out.ffn_block += TimeGemmRs(method, m, inner, h);
  }
  if (two_node_) {
    // Simulated per-layer DP gradient sync across the node boundary; the
    // identical absolute cost lands on both methods (the 1.32x -> 1.29x
    // Figure-11 dilution now emerges from the NIC flows).
    out.dp_sync = TimeDpSync(model);
  }
  return out;
}

sim::TimeNs E2eEstimator::ServingStepTime(const ModelConfig& model,
                                          Method method,
                                          const ServingStep& step) {
  const int64_t new_tokens = step.prefill_tokens + step.decode_requests;
  TL_CHECK_MSG(new_tokens > 0, "empty serving step");
  // Pad the GEMM token rows up to the serving quantum: per-rank shards stay
  // multiples of 32 rows, so the adapted seeds and the ServingMlp space tile
  // every ragged batch (down to a single decode token).
  const int64_t quantum = 32LL * std::max(tp_, 1);
  const int64_t m = RoundUp<int64_t>(std::max(new_tokens, quantum), quantum);
  const int64_t h = model.hidden;
  sim::TimeNs t = 0;
  // Attention block: the projections run over the padded union of prefill
  // and decode rows; the flash core splits into a square prefill pass over
  // the new prompt tokens and a one-query-row decode pass per request
  // against the (bucketed) KV context.
  t += TimeAgGemm(method, m, h, 3 * h / tp_);
  if (step.prefill_tokens > 0) {
    t += TimeFlashCore(model.heads / tp_, step.prefill_tokens,
                       step.prefill_tokens, model.head_dim);
  }
  if (step.decode_requests > 0) {
    const int64_t kv = std::max<int64_t>(step.kv_len, 1);
    t += TimeFlashCore(step.decode_requests * model.heads / tp_, 1, kv,
                       model.head_dim);
  }
  t += TimeGemmRs(method, m, h / tp_, h);
  // FFN block, same composition as LayerTime at the padded row count.
  if (model.is_moe) {
    t += TimeMoe(method, model, m);
    if (model.shared_expert_intermediate > 0) {
      const int64_t si = model.shared_expert_intermediate / tp_;
      t += TimeAgGemm(method, m, h, si);
      t += TimeActivation(m, si);
      t += TimeGemmRs(method, m, si, h);
    }
  } else {
    const int64_t inner = model.intermediate / tp_;
    t += TimeAgGemm(method, m, h, inner);
    t += TimeActivation(m, inner);
    t += TimeGemmRs(method, m, inner, h);
  }
  return t;
}

E2eResult E2eEstimator::Run(const ModelConfig& model) {
  E2eResult res;
  res.model = model.name;
  res.torch_breakdown = LayerTime(model, Method::kTorch);
  res.tilelink_breakdown = LayerTime(model, Method::kTileLink);
  res.torch_layer = res.torch_breakdown.total();
  res.tilelink_layer = res.tilelink_breakdown.total();
  res.torch_total = res.torch_layer * model.layers;
  res.tilelink_total = res.tilelink_layer * model.layers;
  res.speedup = static_cast<double>(res.torch_total) /
                static_cast<double>(res.tilelink_total);
  return res;
}

}  // namespace tilelink::models
