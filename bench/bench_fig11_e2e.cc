// Figure 11: end-to-end LLM comparison (TileLink vs PyTorch) on 8xH800
// (TP=8, batch 4, seq 8192) and 16xH800 (TP=8 x DP=2, batch 8).
//
// Every TileLink kernel config is obtained from Autotuner::Search through a
// per-shape TunedConfigCache (identical layers and identical shapes across
// models — and across the two node configurations — share one search). The
// hand-picked configs of the paper's figures are simulated alongside as the
// search seeds: the bench exits nonzero if any tuned layer regresses past
// its hand-picked default (MoE layers get a 1% interaction tolerance — the
// two MoE parts are tuned in isolation but timed chained per rank).
//
// The 16xH800 section's inter-node DP sync is *simulated* (tile-granular
// gradient AllReduce over the NIC fabric, tilelink/multinode) — the bench
// exits nonzero if the emergent speedup dilution leaves the ballpark of the
// paper's 1.32x -> 1.29x.
//
// Parallel tuning: before the sections run, the full cold tuning sweep
// (every search both sections need, on fresh caches) is executed twice —
// serially and with --tune-threads workers — and the bench exits nonzero
// unless the two produce bitwise-identical cache contents and layer times
// (the autotuner's determinism guarantee, gated end-to-end). Cold and warm
// sweep wall-clocks, the cold sweep's full-fidelity candidate count
// (fig11.tuner.full_evals) and the simulations it ran (fig11.tuner.sims)
// land in the JSON report.
//
// Flags: --cache <path> warm-starts / persists the tuned-config cache;
// --tune-threads <n> sets the parallel sweep's worker count (default 4);
// --json <path> writes per-model latencies/speedups, the per-layer
// component breakdown (attn / ffn / dp-sync), the geomeans and the tuner
// wall-clocks. --trace <path> records the 16xH800 section's simulated NIC
// gradient sync (the tile-granular DP AllReduce) as a chrome-trace
// timeline and saves it there.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "models/transformer.h"
#include "sim/trace.h"
#include "tilelink/multinode/payload_validation.h"

namespace {

struct SectionResult {
  double geomean = 0.0;
  double dense_geomean = 0.0;
  double moe_geomean = 0.0;
  bool ok = true;
};

// Emergent-dilution ballpark: the two-node geomean must sit below the
// single-node one (the NIC sync is real) but not crater it. The paper
// measures 1.32x -> 1.29x (ratio ~1.023); the reproduction's simulated
// flows land near 1.06 — gate loosely around both.
constexpr double kMinDilution = 1.005;
constexpr double kMaxDilution = 1.15;

// Runs every tuned TileLink layer both sections time (8x and 16xH800, all
// Figure-11 models) against `cache` with `tune_threads` autotuner workers.
// Returns the wall-clock seconds; `check` accumulates every layer time so
// two sweeps can be compared bitwise.
double TuningSweep(tilelink::tl::TunedConfigCache* cache, int tune_threads,
                   int64_t* check, int64_t* sims = nullptr) {
  using namespace tilelink;
  const auto t0 = std::chrono::steady_clock::now();
  for (const bool two_node : {false, true}) {
    models::E2eEstimator est(/*tp=*/8, /*batch=*/4, /*seq=*/8192, two_node);
    est.EnableTuning(cache, tune_threads);
    for (const models::ModelConfig& m : models::Figure11Models()) {
      *check += est.LayerTime(m, models::Method::kTileLink).total();
    }
    if (sims != nullptr) *sims += est.search_sims();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

SectionResult RunSection(bool two_node, tilelink::tl::TunedConfigCache* cache,
                         int tune_threads,
                         tilelink::bench::BenchReport* report) {
  using namespace tilelink;
  using namespace tilelink::bench;
  const int64_t batch = two_node ? 8 : 4;  // paper doubles batch on 2 nodes
  const int64_t local_batch = two_node ? batch / 2 : batch;
  models::E2eEstimator defaults(/*tp=*/8, local_batch, /*seq=*/8192, two_node);
  models::E2eEstimator tuned(/*tp=*/8, local_batch, /*seq=*/8192, two_node);
  tuned.EnableTuning(cache, tune_threads);
  const std::string section = two_node ? "16xH800" : "8xH800";
  std::printf("\n=== Figure 11: end-to-end, %s (batch %lld, seq 8192) ===\n",
              two_node ? "16xH800 (TP8 x DP2)" : "8xH800 (TP8)",
              (long long)batch);
  std::printf("%-16s %13s %13s %13s %9s %9s\n", "model", "Torch layer",
              "TL default", "TL tuned", "speedup", "vs deflt");
  SectionResult out;
  double log_sum = 0.0, dense_log = 0.0, moe_log = 0.0;
  int dense_n = 0, moe_n = 0;
  std::vector<models::E2eResult> rows;
  for (const models::ModelConfig& m : models::Figure11Models()) {
    const models::E2eResult tun = tuned.Run(m);
    // Only the TileLink layer is needed from the defaults estimator (its
    // Torch side would re-simulate the exact layers `tuned` already ran);
    // LayerTime includes the default-config DP sync on two nodes.
    const sim::TimeNs def_layer =
        defaults.LayerTime(m, models::Method::kTileLink).total();
    const double vs_default = static_cast<double>(def_layer) /
                              static_cast<double>(tun.tilelink_layer);
    // Regression gate: the searches are seeded with the hand-picked configs,
    // so a tuned component can never lose to its default in isolation; MoE
    // layers chain two independently-tuned kernels per rank and get 1%.
    const double tolerance = m.is_moe ? 1.01 : 1.0;
    const bool ok = static_cast<double>(tun.tilelink_layer) <=
                    static_cast<double>(def_layer) * tolerance;
    out.ok = out.ok && ok;
    std::printf("%-16s %11.3fms %11.3fms %11.3fms %8.2fx %8.2fx%s\n",
                tun.model.c_str(), ToMsD(tun.torch_layer), ToMsD(def_layer),
                ToMsD(tun.tilelink_layer), tun.speedup, vs_default,
                ok ? "" : "  <- REGRESSION");
    log_sum += std::log(tun.speedup);
    if (m.is_moe) {
      moe_log += std::log(tun.speedup);
      ++moe_n;
    } else {
      dense_log += std::log(tun.speedup);
      ++dense_n;
    }
    const std::string prefix = "fig11." + section + "." + m.name;
    report->Record(prefix + ".torch_ms", ToMsD(tun.torch_layer));
    report->Record(prefix + ".tilelink_default_ms", ToMsD(def_layer));
    report->Record(prefix + ".tilelink_tuned_ms", ToMsD(tun.tilelink_layer));
    report->Record(prefix + ".speedup", tun.speedup);
    // Per-layer component breakdown (attn / ffn / simulated dp-sync).
    report->Record(prefix + ".attn_ms", ToMsD(tun.tilelink_breakdown.attn_block));
    report->Record(prefix + ".ffn_ms", ToMsD(tun.tilelink_breakdown.ffn_block));
    report->Record(prefix + ".torch_attn_ms",
                   ToMsD(tun.torch_breakdown.attn_block));
    report->Record(prefix + ".torch_ffn_ms",
                   ToMsD(tun.torch_breakdown.ffn_block));
    if (two_node) {
      report->Record(prefix + ".dp_sync_ms",
                     ToMsD(tun.tilelink_breakdown.dp_sync));
    }
    rows.push_back(tun);
  }
  out.geomean = std::exp(log_sum / (dense_n + moe_n));
  out.dense_geomean = std::exp(dense_log / dense_n);
  out.moe_geomean = std::exp(moe_log / moe_n);
  std::printf("%-16s %39s %8.2fx\n", "GEOMEAN", "", out.geomean);
  std::printf("  dense geomean %.2fx, MoE geomean %.2fx\n", out.dense_geomean,
              out.moe_geomean);
  report->Record("fig11." + section + ".geomean", out.geomean);
  report->Record("fig11." + section + ".dense_geomean", out.dense_geomean);
  report->Record("fig11." + section + ".moe_geomean", out.moe_geomean);
  if (two_node) {
    // Per-layer component table: where the tuned layer's time goes and what
    // the simulated NIC gradient sync costs each model.
    std::printf("\n-- per-layer breakdown, %s (TileLink tuned) --\n",
                section.c_str());
    std::printf("%-16s %11s %11s %11s %9s\n", "model", "attn", "ffn",
                "dp sync", "dp share");
    for (const models::E2eResult& tun : rows) {
      const models::LayerBreakdown& b = tun.tilelink_breakdown;
      std::printf("%-16s %9.3fms %9.3fms %9.3fms %8.1f%%\n",
                  tun.model.c_str(), ToMsD(b.attn_block), ToMsD(b.ffn_block),
                  ToMsD(b.dp_sync),
                  100.0 * static_cast<double>(b.dp_sync) /
                      static_cast<double>(b.total()));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tilelink;
  using namespace tilelink::bench;
  BenchReport report(argc, argv);
  int tune_threads = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--tune-threads") {
      tune_threads = std::max(1, std::atoi(argv[i + 1]));
    }
  }
  tl::TunedConfigCache cache;
  if (!report.cache_path().empty() && cache.LoadFile(report.cache_path())) {
    // Both sections tune on H800-constant specs, so one calibration hash
    // covers every key; entries from older calibrations are unreachable.
    const std::size_t stale = cache.PruneStaleCalibration(
        tl::CostCalibrationHash(sim::MachineSpec::H800x8()));
    std::printf("warm-started %zu tuned configs from %s (%zu stale pruned)\n",
                cache.size(), report.cache_path().c_str(), stale);
  }

  // Parallel-determinism gate + tuner wall-clocks: the full cold sweep
  // (every search both sections need) twice on fresh caches — serial, then
  // with --tune-threads workers — which must agree bitwise on every tuned
  // config and every layer time.
  tl::TunedConfigCache serial_cache, parallel_cache;
  int64_t serial_check = 0, parallel_check = 0;
  int64_t cold_sims = 0;
  const double cold_serial_s =
      TuningSweep(&serial_cache, 1, &serial_check, &cold_sims);
  const double cold_parallel_s =
      TuningSweep(&parallel_cache, tune_threads, &parallel_check);
  const bool identical = serial_cache.ToJson() == parallel_cache.ToJson() &&
                         serial_check == parallel_check;
  std::printf(
      "\ntuner cold sweep: %.2fs serial, %.2fs at %d threads (%.2fx); "
      "parallel result %s\n",
      cold_serial_s, cold_parallel_s, tune_threads,
      cold_serial_s / cold_parallel_s,
      identical ? "IDENTICAL to serial" : "DIVERGED from serial");
  // Seed the section cache with the (gated-identical) sweep results and
  // time the now-all-hits warm sweep.
  cache.FromJson(parallel_cache.ToJson());
  int64_t warm_check = 0;
  const double warm_s = TuningSweep(&cache, tune_threads, &warm_check);
  std::printf("tuner warm sweep: %.2fs (all searches cache hits)\n", warm_s);
  report.Record("fig11.tuner.threads", tune_threads);
  report.Record("fig11.tuner.cold_sweep_serial_s", cold_serial_s);
  report.Record("fig11.tuner.cold_sweep_parallel_s", cold_parallel_s);
  report.Record("fig11.tuner.cold_speedup", cold_serial_s / cold_parallel_s);
  report.Record("fig11.tuner.warm_sweep_s", warm_s);
  report.Record("fig11.tuner.deterministic", identical ? 1.0 : 0.0);
  // Candidates the cold sweep scored at full fidelity: deterministic, so a
  // search bound that stops pruning moves it (CI gates it on a ceiling).
  int64_t full_evals = 0;
  for (const auto& [key, entry] : serial_cache.Entries()) {
    full_evals += entry.full_evals;
  }
  std::printf("tuner cold sweep: %lld full-fidelity candidates, %lld "
              "simulations run over %zu searches\n",
              static_cast<long long>(full_evals),
              static_cast<long long>(cold_sims), serial_cache.size());
  report.Record("fig11.tuner.full_evals", static_cast<double>(full_evals));
  // Simulations the cold sweep ran (coarse + full fidelity, one per
  // planner-distinct kernel per round): CI gates it on a ceiling, so a
  // search that stops merging planner-identical candidates fails there.
  report.Record("fig11.tuner.sims", static_cast<double>(cold_sims));

  const SectionResult one = RunSection(false, &cache, tune_threads, &report);
  const SectionResult two = RunSection(true, &cache, tune_threads, &report);
  std::printf(
      "\ntuner cache: %zu entries, %d search hits, %d searches run\n",
      cache.size(), cache.hits(), cache.misses());
  if (!report.cache_path().empty() && cache.SaveFile(report.cache_path())) {
    std::printf("saved tuned-config cache to %s\n",
                report.cache_path().c_str());
  }
  // Paper reference (Fig 11): geomeans vs the Torch baseline.
  const double paper_8x = 1.32, paper_8x_dense = 1.20, paper_8x_moe = 1.54;
  const double paper_16x = 1.29;
  std::printf(
      "\nPaper reference (Fig 11): 8xH800 geomean %.2fx (dense %.2fx, MoE "
      "%.2fx); 16xH800 geomean %.2fx.\n",
      paper_8x, paper_8x_dense, paper_8x_moe, paper_16x);
  std::printf(
      "This reproduction (tuned): 8xH800 %.2fx (%.0f%% of paper; dense "
      "%.2fx, MoE %.2fx); 16xH800 %.2fx (%.0f%% of paper).\n",
      one.geomean, 100.0 * one.geomean / paper_8x, one.dense_geomean,
      one.moe_geomean, two.geomean, 100.0 * two.geomean / paper_16x);
  report.Record("fig11.8xH800.geomean_vs_paper", one.geomean / paper_8x);
  report.Record("fig11.16xH800.geomean_vs_paper", two.geomean / paper_16x);
  // Emergent dilution: the two-node geomean relative to the single-node one
  // now comes from simulated NIC flows, so gate it against the paper's
  // ballpark instead of asserting it.
  const double dilution = one.geomean / two.geomean;
  std::printf(
      "Simulated dilution: %.3fx (paper %.3fx; accepted band %.3f..%.3f).\n",
      dilution, paper_8x / paper_16x, kMinDilution, kMaxDilution);
  report.Record("fig11.dilution", dilution);
  if (!report.trace_path().empty()) {
    // The timeline view of the two-node section's emergent cost: the
    // simulated DP gradient AllReduce over the NIC fabric, at the same
    // tile/chunk granularity the dilution gate above measures.
    sim::TraceRecorder rec;
    multinode::ValidateDpAllReduce(sim::MachineSpec::H800x16(),
                                   /*num_tiles=*/24, /*tile_bytes=*/64 << 10,
                                   /*tile_elems=*/128, multinode::HierConfig{},
                                   /*plan=*/nullptr, &rec, /*pid_base=*/0);
    rec.Save(report.trace_path());
    std::printf("trace: wrote %s (%zu events)\n", report.trace_path().c_str(),
                rec.size());
  }
  report.WriteJson();
  bool ok = one.ok && two.ok;
  if (!identical || warm_check != serial_check) {
    std::printf("\nFAIL: parallel tuning (%d threads) diverged from the "
                "serial search — determinism guarantee broken.\n",
                tune_threads);
    ok = false;
  }
  if (dilution < kMinDilution || dilution > kMaxDilution) {
    std::printf("\nFAIL: simulated two-node dilution %.3fx left the paper's "
                "ballpark [%.3f, %.3f].\n",
                dilution, kMinDilution, kMaxDilution);
    ok = false;
  }
  if (!(one.ok && two.ok)) {
    std::printf("\nFAIL: a tuned config regressed past its hand-picked "
                "default.\n");
  }
  return ok ? 0 : 1;
}
