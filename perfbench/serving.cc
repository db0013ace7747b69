// `serving` workload: two replicas with fresh estimators that share one
// laddered ConfigService. Replica r serves its own trace, generated from
// --seed + r, over the four models of bench/bench_serving.cc. Padded decode
// shapes make the fixed cost per simulation and the laddered cold tunes
// dominate; the second replica mixes cache reads with writes.
//
// Each replica is replayed through ContinuousBatchScheduler directly (as
// RunServing drives it), so every ServingStepTime call is timed from
// outside. One op is one replica serving one model's slice of its trace
// (one ContinuousBatchScheduler::Run), so 8 ops per pass. A single step
// call is no steady op: about 93% of them are answered from the
// estimator's memo in microseconds, the rest simulate or cold-tune, and
// the median lands on the memo path (models.hit_call_p50_ms reports it).
// The replay is then checked against RunServing on the same estimator:
// step count and latency percentiles must match exactly.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "estimator_calls.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "serving/config_service.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/shape_bucket.h"
#include "serving/traffic_gen.h"

namespace perfbench {
namespace {

using namespace tilelink;

constexpr const char* kModels[] = {"GPT3-6.7B", "LLaMA2-13B", "LLaMA2-70B",
                                   "Mixtral-8x7B"};
constexpr int kReplicas = 2;
// Long enough that the set of tuned shapes nearly saturates, so the seed
// moves the number of cold searches (most of the host time) by a few
// percent rather than by 15% as at 300 requests.
constexpr int kRequestsPerReplica = 1000;
constexpr int kWorkers = 2;

serving::ServingOptions MakeOptions(uint64_t seed) {
  serving::ServingOptions opts;
  for (const char* name : kModels) {
    opts.models.push_back(models::GetModel(name));
  }
  opts.traffic.seed = seed;
  opts.traffic.num_requests = kRequestsPerReplica;
  opts.traffic.num_models = static_cast<int>(opts.models.size());
  opts.traffic.mean_interarrival = sim::Ms(5);
  opts.traffic.min_prompt = 64;
  opts.traffic.max_prompt = 2048;
  opts.traffic.min_gen = 8;
  opts.traffic.max_gen = 64;
  return opts;
}

std::string ShapeKey(const std::string& model, const models::ServingStep& s) {
  return model + "/p" + std::to_string(s.prefill_tokens) + "/d" +
         std::to_string(s.decode_requests) + "/kv" + std::to_string(s.kv_len);
}

class Serving : public Workload {
 public:
  explicit Serving(const Options& opts) : seed_(opts.seed) {}

  void SetUp() override {
    replicas_.clear();
    for (int r = 0; r < kReplicas; ++r) {
      Replica rep;
      rep.opts = MakeOptions(seed_ + static_cast<uint64_t>(r));
      rep.trace = serving::GenerateTraffic(rep.opts.traffic);
      replicas_.push_back(std::move(rep));
    }
    workers_ = std::max(
        1, std::min<int>(kWorkers, static_cast<int>(
                                       std::thread::hardware_concurrency())));
    WarmUpProbe();
  }

  PassResult Pass(Ctx& ctx) override {
    PassResult out;
    serving::ConfigService service(
        serving::ConfigService::Options{0, workers_, /*laddered=*/true});
    EstimatorCalls calls(service.cache(), workers_);
    std::vector<sim::TimeNs> latencies;
    int64_t requests = 0, steps = 0;
    double replay_s = 0;
    for (const Replica& rep : replicas_) {
      models::E2eEstimator est(/*tp=*/8, /*batch=*/1, /*seq=*/1,
                               /*two_node=*/false);
      service.Attach(&est);
      Spans::Scope replay(ctx.spans, "serving.replay");
      std::vector<sim::TimeNs> mine;
      int64_t my_steps = 0;
      for (std::size_t mi = 0; mi < rep.opts.models.size(); ++mi) {
        const models::ModelConfig& model = rep.opts.models[mi];
        std::vector<serving::Request> slice;
        for (const serving::Request& q : rep.trace) {
          if (q.model_index == static_cast<int>(mi)) slice.push_back(q);
        }
        if (slice.empty()) continue;
        serving::ContinuousBatchScheduler sched(rep.opts.sched,
                                                std::move(slice));
        std::vector<serving::RequestOutcome> outcomes;
        ctx.Op("serving.model_replay", model.name, [&] {
          outcomes = sched.Run([&](const models::ServingStep& raw) {
            const models::ServingStep b =
                serving::BucketStep(raw, rep.opts.buckets);
            return calls.Call(ctx, "models.serving_step",
                              ShapeKey(model.name, b), [&] {
                                return est.ServingStepTime(
                                    model, rep.opts.method, b);
                              }) *
                   model.layers;
          });
          return !outcomes.empty();
        });
        for (const serving::RequestOutcome& o : outcomes) {
          mine.push_back(o.latency());
        }
        my_steps += static_cast<int64_t>(sched.steps().size());
      }
      replay_s += replay.Stop();

      // The replay must be exactly what RunServing computes. The estimator's
      // memo is warm, so this re-runs the scheduler without new simulations.
      Spans::Scope check(ctx.spans, "serving.run_serving");
      const serving::ServingResult res = serving::RunServing(rep.opts, &est);
      check.Stop();
      ctx.Check(res.total_steps == my_steps &&
                    res.total_requests == static_cast<int64_t>(mine.size()) &&
                    res.p50_latency == serving::Percentile(mine, 0.5) &&
                    res.p99_latency == serving::Percentile(mine, 0.99),
                "scheduler replay matches RunServing");
      requests += static_cast<int64_t>(mine.size());
      steps += my_steps;
      latencies.insert(latencies.end(), mine.begin(), mine.end());
      out.answers.push_back(static_cast<double>(res.p50_latency));
      out.answers.push_back(static_cast<double>(res.p99_latency));
      out.answers.push_back(static_cast<double>(my_steps));
    }
    calls.Export(ctx, &out);
    std::vector<double> lat_ms;
    for (sim::TimeNs t : latencies) lat_ms.push_back(sim::ToMs(t));
    out.layer["serving.requests"] = static_cast<double>(requests);
    out.layer["serving.steps"] = static_cast<double>(steps);
    out.layer["serving.sched_s"] = replay_s - calls.call_s();
    out.layer["sim_latency_p50_ms"] =
        sim::ToMs(serving::Percentile(latencies, 0.5));
    out.layer["sim_latency_tail_ms"] = Tail(lat_ms);
    return out;
  }

 private:
  struct Replica {
    serving::ServingOptions opts;
    std::vector<serving::Request> trace;
  };

  uint64_t seed_;
  std::vector<Replica> replicas_;
  int workers_ = 1;
};

}  // namespace

std::unique_ptr<Workload> MakeServing(const Options& opts) {
  return std::make_unique<Serving>(opts);
}

}  // namespace perfbench
