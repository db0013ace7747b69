#!/usr/bin/env bash
# CI: tier-1 verify plus the tuned-bench smoke stages.
#   1. RelWithDebInfo, -Wall -Wextra -Werror (warnings are errors)
#   2. Debug + AddressSanitizer
#   3. Debug + ThreadSanitizer, with real data races reported as errors:
#      the parallel-search determinism tests (every kernel family, the
#      three multi-node ones included, and the shared read-only FaultPlan
#      retry-path search), the tuned-config-cache stress run, and the e2e
#      estimator's tuned path (test_serving's MeasuredCostTest at
#      tune_threads 4: GetOrTune on one shared cache while the autotuner's
#      pool runs, the estimator's search/resim counters and its memo
#      mutex). Those three are the multi-threaded code paths.
#   4. Bench smoke: the autotuned fig8/fig11 benches (each exits nonzero if
#      any tuned config loses to its hand-picked default, fig8 also if its
#      MLP-1 searches run no fewer simulations than candidates scored (a
#      search that stops merging planner-identical kernels), fig11 also if
#      the simulated two-node dilution leaves the paper's ballpark), plus
#      the simulator microbenchmarks; the stage checks fig8 reported the
#      flow network's net.completion_events_per_transfer,
#      net.rerates_per_transfer, net.wakeups_per_transfer and
#      net.empty_wakeups_per_transfer keys and
#      bench_micro_sim the interpreter rung's
#      BM_SimulateAgGemmMlp1.events_per_s and the wide event-loop rung's
#      BM_EventLoopWide/1024.items_per_second keys, and gates the
#      deterministic heap-allocation counts: allocs_per_event of the
#      interpreter rung (warm RunSpmd), of the FLUX GEMM+RS rung (a
#      timing-only run that builds per-block scratch fails here) and of the
#      BM_ParkWake rung must stay at or under their committed ceilings, as
#      must the interpreter rung's
#      coroutine resumes per event (resumes_per_event: a kernel whose
#      k-loop falls off the repeated-delay path fails here), its
#      event-queue pops per event (queue_pops_per_event: a simulator that
#      stops moving lockstep k-loop repeats as one queued wave fails
#      here), the flow network's work per transfer (fig8's completion
#      entries and re-rates per transfer, the FLUX GEMM+RS rung's re-rates
#      per flow: a kernel whose pushes converge on one owner's ingress
#      fails here), fig11's cold-sweep full-fidelity candidate count
#      (fig11.tuner.full_evals: a bound that stops pruning fails here) and
#      the simulations that sweep runs
#      (fig11.tuner.sims: a search that stops merging planner-identical
#      candidates fails here). fig11 also
#      gates the parallel-tuning identity: the cold sweep at
#      --tune-threads 8 must reproduce the
#      serial sweep's cache bit-for-bit. Machine-readable results land in
#      build-ci/BENCH_*.json; fig11 warm-starts its tuned-config cache from
#      build-ci/BENCH_fig11_cache.json when a previous run left one. The
#      stage also smoke-runs the six benches no gate covers (fig9, fig10,
#      table2 and the three ablations, ~5 s in Release): they are the only
#      callers of the MoE baselines' kCutlass/kVllm paths, ag_attention's
#      skip_comm/comm_only modes and the tuner's verbose trace, so a crash
#      or an error exit there fails the stage.
#   5. 16-GPU smoke: the two-node fabric bench with --payload --fused —
#      fails if the functional 2x8 collectives are not bit-exact with zero
#      consistency violations (or an injected NIC-stage fault goes
#      uncaught), if a hierarchical collective loses to its flat
#      single-stage baseline at 2x8, if a tuned DP-sync config loses to
#      the hand-picked two-node defaults, or if the fused gemm_hier_rs
#      kernel loses to the layer-level GEMM-then-HierRS compose (or its
#      functional run is not bit-exact / violation-free), or if the
#      planner-generated ag_gemm_hier loses its --ag-fused gate (fused vs
#      AllGather-then-GEMM compose, tuned vs seed, small-m column split,
#      functional + fault-injected bit-exactness), or if any fault row
#      (transient schedules, the t=0 and mid-run rail-death cases of all
#      six targets, the --ag-fused fault gate) breaks retries == drops +
#      timeouts: the balance catches a retransmit policy that swallows or
#      double-retries a failed attempt. The t=0 rail death must also keep
#      every target, the host-driven collectives and the fused kernel's
#      device pushes alike, within the surviving-bandwidth bound, so the
#      fabric's one rail pick is gated for both.
#      The bench also self-gates the fabric timeline: the recorded
#      chrome-trace JSON must parse, the producer->ring->rail->reduce flow
#      chain must be present, the profiler must be internally consistent
#      (utilizations in [0,1], critical path <= makespan), traced faults
#      must surface as fault.* instants, and makespans must be bitwise
#      identical with tracing on or off. The stage then checks the fabric.*
#      keys landed in the JSON report and that the saved trace file is
#      non-trivial.
#   6. Serving smoke: the continuous-batching bench drives a deterministic
#      request trace through per-model replicas whose cold tunes run the
#      exact, bound-pruned MLP searches behind the online config service —
#      it self-gates p99/cold-tune latency bounds, the cold+warm hit rate,
#      tuned >= seed, bitwise same-seed reproducibility (trace + cache), and
#      the MLP searches matching the exhaustive argmin. The stage
#      then checks the serving.* keys landed in BENCH_serving.json and
#      gates serving.resims at 0: the replicas must time every cached
#      config by the cost this process's search measured, not simulate it
#      again, and serving.search_sims at its committed ceiling: the MLP
#      searches must simulate each planner-distinct kernel once.
#   7. Unreached-code report (informational): scripts/unreached.sh lists
#      every strong tilelink:: library function that no bench, example or
#      perfbench binary reaches in an -O0 --gc-sections link, with the
#      tests that do reach it, and ends with "unreached_functions: N". The
#      stage fails only if the script itself fails, never because of N.
# Usage: scripts/ci.sh [--fast]   (--fast skips stages 2-7)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "=== [1/7] RelWithDebInfo, -Wall -Wextra -Werror ==="
cmake -B build-ci -S . -DTILELINK_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ci -j"$(nproc)"
# --timeout: a hung coroutine pipeline fails fast instead of
# stalling the whole CI run.
(cd build-ci && ctest --output-on-failure --timeout 120 -j"$(nproc)")

if [[ "$FAST" == "0" ]]; then
  echo "=== [2/7] Debug + ASan ==="
  cmake -B build-asan -S . -DTILELINK_ASAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-asan -j"$(nproc)"
  # ctest includes test_multinode, so the functional collectives' payload
  # and staging buffers are leak-checked here (the coroutine frame pools
  # are already gated off under ASan). detect_leaks is pinned on so a
  # platform default can't silently drop the leak check.
  (cd build-asan && ASAN_OPTIONS=detect_leaks=1 \
      ctest --output-on-failure --timeout 300 -j"$(nproc)")

  echo "=== [3/7] Debug + TSan (parallel search, concurrent cache, tuned estimator) ==="
  cmake -B build-tsan -S . -DTILELINK_TSAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-tsan -j"$(nproc)" --target test_tuning test_serving
  # halt_on_error: a data race fails the stage instead of scrolling past.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/test_tuning
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/test_serving \
      --gtest_filter='MeasuredCostTest.*'

  echo "=== [4/7] Bench smoke (tuned configs must beat hand-picked) ==="
  ./build-ci/bench_micro_sim --json build-ci/BENCH_micro_sim.json
  ./build-ci/bench_fig8_mlp --json build-ci/BENCH_fig8.json
  ./build-ci/bench_fig11_e2e --tune-threads 8 \
      --json build-ci/BENCH_fig11.json \
      --cache build-ci/BENCH_fig11_cache.json
  # Ungated benches: each must run to completion with exit status 0; the
  # output is kept in build-ci/SMOKE_<bench>.txt and shown on failure.
  for b in bench_fig9_moe bench_fig10_attention bench_table2_motivation \
           bench_ablation_tile_size bench_ablation_sync_granularity \
           bench_ablation_resource_mapping; do
    "./build-ci/$b" > "build-ci/SMOKE_$b.txt" 2>&1 \
        || { cat "build-ci/SMOKE_$b.txt"; echo "$b failed"; exit 1; }
  done
  # The flow network's completion-event count is the perf-trajectory key
  # for the simulator hot path; make sure fig8 reported it.
  # Its re-rates per transfer are the baseline for sharing-rule changes,
  # its wake-ups (and those that completed no flow) for wake-up changes.
  for key in net.completion_events_per_transfer net.rerates_per_transfer \
             net.wakeups_per_transfer net.empty_wakeups_per_transfer; do
    grep -q "\"$key\"" build-ci/BENCH_fig8.json \
        || { echo "missing $key in BENCH_fig8.json"; exit 1; }
  done
  # Likewise the program-interpreter rung: events/s over RunSpmd only.
  grep -q '"BM_SimulateAgGemmMlp1.events_per_s"' build-ci/BENCH_micro_sim.json \
      || { echo "missing BM_SimulateAgGemmMlp1.events_per_s in BENCH_micro_sim.json"; exit 1; }
  # And the wide event-loop rung: many events sharing each timestamp.
  grep -q '"BM_EventLoopWide/1024.items_per_second"' build-ci/BENCH_micro_sim.json \
      || { echo "missing BM_EventLoopWide/1024.items_per_second in BENCH_micro_sim.json"; exit 1; }
  # Deterministic counters gate on committed ceilings (usage: ceiling
  # <json> <key> <ceiling>). Heap allocations per simulated event: a warm
  # interpreter run allocates only for fresh flags' waiter lists and the
  # host DMA path's buffer copies (0.0762; 0.2422 while tensor views kept
  # their shape and strides on the heap, 0.52 before the allocation-free
  # hot path), a warm park/wake loop not at all. A warm timing-only FLUX
  # GEMM+RS at fig8 MLP-1 allocates 0.0211 per event (0.0381 while every
  # block built its 128 KiB accumulator in timing-only runs too, 2 heap
  # allocations per block). The flow network's work: FLUX GEMM+RS at fig8
  # MLP-1 re-rates 84.34 flows per flow it starts, and the fig8 figure
  # simulations push 3.880 completion entries and re-rate 78.91 flows per
  # transfer, with FLUX's tile order swizzled by rank so the ranks' pushes
  # land on different owners (201.6, 10.465 and 182.38 while all eight
  # ranks pushed to one owner at a time). Coroutine resumes per
  # interpreter event: 0.3274 with every pure-compute k-loop run as one
  # repeated delay (one resume per tile, not per k-step). Event-queue pops
  # per interpreter event: 0.4325 with lockstep repeats moved as one
  # queued wave, 1.0 with every repeat popped on its own. The fig11 cold
  # sweep's full-fidelity candidates: 1164 with each family's overlap
  # bound pruning the exact MLP searches (1372 with no MLP bound), so a
  # bound that stops pruning fails here. The simulations that sweep runs
  # (the MoE and attention coarse rounds + full fidelity): 1493 with
  # planner-identical candidates merged (1705 with no MLP canonicalizer),
  # so a search that stops simulating each distinct kernel once fails
  # here.
  ceiling() {
    local json=$1 key=$2 ceiling=$3 value
    value=$(grep -o "\"$key\": [0-9.eE+-]*" "$json" | awk '{print $2}')
    [[ -n "$value" ]] || { echo "missing $key in $json"; exit 1; }
    awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v <= c) }' \
        || { echo "$key = $value exceeds its ceiling $ceiling"; exit 1; }
  }
  ceiling build-ci/BENCH_micro_sim.json BM_SimulateAgGemmMlp1.allocs_per_event 0.0763
  ceiling build-ci/BENCH_micro_sim.json BM_SimulateFluxGemmRsMlp1.allocs_per_event 0.0212
  ceiling build-ci/BENCH_micro_sim.json BM_ParkWake.allocs_per_event 0
  ceiling build-ci/BENCH_micro_sim.json BM_SimulateFluxGemmRsMlp1.rerates_per_flow 84.4
  ceiling build-ci/BENCH_fig8.json net.rerates_per_transfer 79.0
  ceiling build-ci/BENCH_fig8.json net.completion_events_per_transfer 3.89
  ceiling build-ci/BENCH_micro_sim.json BM_SimulateAgGemmMlp1.resumes_per_event 0.3275
  ceiling build-ci/BENCH_micro_sim.json BM_SimulateAgGemmMlp1.queue_pops_per_event 0.4326
  ceiling build-ci/BENCH_fig11.json fig11.tuner.full_evals 1164
  ceiling build-ci/BENCH_fig11.json fig11.tuner.sims 1493

  echo "=== [5/7] 16-GPU smoke (payload + fused + ag-fused + faults) ==="
  # The planner-built kernels' frozen makespans and payload hashes
  # (test_overlap_gen's golden suite) already ran under ctest in stages
  # 1-2; this stage gates the generated kernel's end-to-end win:
  # --ag-fused fails if the planner-generated ag_gemm_hier loses to the
  # AllGather-then-GEMM compose at any gate shape (including the small-m
  # column-split shape), if the tuner regresses past the seed, if the
  # small-m planner stops column-splitting, or if the functional /
  # fault-injected runs are not bit-exact and checker-clean. --faults also
  # fails any fault row whose retries != drops + timeouts.
  ./build-ci/bench_multinode_fabric --payload --fused --ag-fused --faults \
      --json build-ci/BENCH_multinode.json \
      --trace build-ci/TRACE_multinode.json
  # The bench already gates trace validity, the flow chain and profiler
  # consistency via its exit code; double-check the artifacts made it out.
  for key in fabric.exposed_comm_frac fabric.critical_path_ns \
             fabric.compute_util fabric.wire_util \
             fabric.ag_fused_speedup fabric.ag_fused_exposed_comm_frac; do
    grep -q "\"$key\"" build-ci/BENCH_multinode.json \
        || { echo "missing $key in BENCH_multinode.json"; exit 1; }
  done
  [[ -s build-ci/TRACE_multinode.json ]] \
      || { echo "empty TRACE_multinode.json"; exit 1; }
  grep -q '"ph"' build-ci/TRACE_multinode.json \
      || { echo "TRACE_multinode.json has no trace events"; exit 1; }

  echo "=== [6/7] Serving smoke (continuous batching + online config service) ==="
  # The bench exits nonzero if any of its own gates fail: fleet p99 and
  # per-unseen-shape cold-tune latency bounds, cache hit rate across a
  # cold+warm replica pair, tuned-vs-seed geomean >= 1, bitwise identical
  # trace+cache on a same-seed rerun, and the bound-pruned MLP search
  # matching the exhaustive argmin on every tuned MLP shape.
  ./build-ci/bench_serving --requests 24 --tune-threads 8 \
      --json build-ci/BENCH_serving.json \
      --cache build-ci/BENCH_serving_cache.json
  for key in serving.p99_ms serving.cache_hit_rate serving.tuned_speedup \
             serving.search_eval_frac; do
    grep -q "\"$key\"" build-ci/BENCH_serving.json \
        || { echo "missing $key in BENCH_serving.json"; exit 1; }
  done
  # Re-simulated cached configs: 0 when the estimator reuses the costs its
  # own process's searches measured (the warm replica re-simulated every
  # hit before that).
  ceiling build-ci/BENCH_serving.json serving.resims 0
  # Simulations the exact MLP searches run: 584 with planner-identical
  # candidates merged (900 without).
  ceiling build-ci/BENCH_serving.json serving.search_sims 584

  echo "=== [7/7] Unreached-code report (non-gating) ==="
  scripts/unreached.sh
fi

echo "CI OK"
