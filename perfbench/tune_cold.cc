// `tune_cold` workload: a fixed dense + MoE subset of Figure11Models()
// timed through E2eEstimator::EnableTuning on an empty TunedConfigCache,
// first on 8xH800, then on 16xH800 (the DP sync over the NIC), with a fixed
// worker count. Every lookup misses and runs the classic halved search on
// training-scale shapes, so the search schedule, its bounds and the thread
// pool dominate. One op is one LayerTime call. No seed: the subset is fixed.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "estimator_calls.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/tuned_config_cache.h"

namespace perfbench {
namespace {

using namespace tilelink;

constexpr const char* kSubset[] = {"LLaMA2-7B", "Mixtral-8x7B"};
constexpr int kWorkers = 2;

class TuneCold : public Workload {
 public:
  void SetUp() override {
    models_.clear();
    for (const char* name : kSubset) models_.push_back(models::GetModel(name));
    workers_ = std::max(
        1, std::min<int>(kWorkers, static_cast<int>(
                                       std::thread::hardware_concurrency())));
    WarmUpProbe();
  }

  PassResult Pass(Ctx& ctx) override {
    PassResult out;
    tl::TunedConfigCache cache;
    EstimatorCalls calls(cache, workers_);
    std::vector<double> attn, ffn, dp_sync;
    for (const bool two_node : {false, true}) {
      models::E2eEstimator est(/*tp=*/8, /*batch=*/4, /*seq=*/8192, two_node);
      est.EnableTuning(&cache, workers_);
      for (const models::ModelConfig& m : models_) {
        const std::string name =
            std::string(two_node ? "16x." : "8x.") + m.name;
        models::LayerBreakdown b;
        ctx.Op("tune_cold.layer", name, [&] {
          b = calls.Call(ctx, "models.layer_time", name, [&] {
            return est.LayerTime(m, models::Method::kTileLink);
          });
          return b.attn_block > 0 && b.ffn_block > 0 &&
                 (b.dp_sync > 0) == two_node;
        });
        attn.push_back(sim::ToMs(b.attn_block));
        ffn.push_back(sim::ToMs(b.ffn_block));
        if (two_node) dp_sync.push_back(sim::ToMs(b.dp_sync));
        out.answers.push_back(static_cast<double>(b.attn_block));
        out.answers.push_back(static_cast<double>(b.ffn_block));
        out.answers.push_back(static_cast<double>(b.dp_sync));
      }
    }
    calls.Export(ctx, &out);
    out.layer["models.attn_ms"] = Geomean(attn);
    out.layer["models.ffn_ms"] = Geomean(ffn);
    out.layer["models.dp_sync_ms"] = Geomean(dp_sync);
    return out;
  }

 private:
  std::vector<models::ModelConfig> models_;
  int workers_ = 1;
};

}  // namespace

std::unique_ptr<Workload> MakeTuneCold(const Options&) {
  return std::make_unique<TuneCold>();
}

}  // namespace perfbench
