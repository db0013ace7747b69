#!/usr/bin/env bash
# CI: tier-1 verify plus the tuned-bench smoke stages.
#   1. RelWithDebInfo, -Wall -Wextra -Werror (warnings are errors)
#   2. Debug + AddressSanitizer
#   3. Debug + ThreadSanitizer: the parallel-search determinism tests —
#      including the shared read-only FaultPlan retry-path search — and
#      the tuned-config-cache stress run with real data races reported as
#      errors (the sharded autotuner and the concurrent cache are the only
#      multi-threaded code paths).
#   4. Bench smoke: the autotuned fig8/fig11 benches (each exits nonzero if
#      any tuned config loses to its hand-picked default, fig8 also if the
#      halving/bound machinery stops skipping candidates, and fig11 also if
#      the simulated two-node dilution leaves the paper's ballpark), plus
#      the simulator microbenchmarks; the stage checks fig8 reported the
#      flow network's net.completion_events_per_transfer key and
#      bench_micro_sim the interpreter rung's
#      BM_SimulateAgGemmMlp1.events_per_s and the wide event-loop rung's
#      BM_EventLoopWide/1024.items_per_second keys, and gates the
#      deterministic heap-allocation counts: allocs_per_event of the
#      interpreter rung (warm RunSpmd) and of the BM_ParkWake rung must stay
#      at or under their committed ceilings. fig11 also
#      gates the parallel-tuning identity: the cold sweep at
#      --tune-threads 8 must reproduce the
#      serial sweep's cache bit-for-bit. Machine-readable results land in
#      build-ci/BENCH_*.json; fig11 warm-starts its tuned-config cache from
#      build-ci/BENCH_fig11_cache.json when a previous run left one.
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
#      functional + fault-injected bit-exactness). The bench also
#      self-gates the fabric timeline: the recorded chrome-trace JSON must
#      parse, the producer->ring->rail->reduce flow chain must be present,
#      the profiler must be internally consistent (utilizations in [0,1],
#      critical path <= makespan), traced faults must surface as fault.*
#      instants, and makespans must be bitwise identical with tracing on or
#      off. The stage then checks the fabric.* keys landed in the JSON
#      report and that the saved trace file is non-trivial.
#   6. Serving smoke: the continuous-batching bench drives a deterministic
#      request trace through per-model replicas whose cold tunes run the
#      halved Autotuner::Search behind the online config service — it
#      self-gates p99/cold-tune latency bounds, the cold+warm hit rate,
#      tuned >= seed, bitwise same-seed reproducibility (trace + cache), and
#      the halved search's efficiency/argmin contract against the
#      exhaustive search. The stage
#      then checks the serving.* keys landed in BENCH_serving.json.
# Usage: scripts/ci.sh [--fast]   (--fast skips the sanitizer/bench stages)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "=== [1/6] RelWithDebInfo, -Wall -Wextra -Werror ==="
cmake -B build-ci -S . -DTILELINK_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ci -j
# --timeout: a hung coroutine pipeline fails fast instead of
# stalling the whole CI run.
(cd build-ci && ctest --output-on-failure --timeout 120 -j"$(nproc)")

if [[ "$FAST" == "0" ]]; then
  echo "=== [2/6] Debug + ASan ==="
  cmake -B build-asan -S . -DTILELINK_ASAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-asan -j
  # ctest includes test_multinode, so the functional collectives' payload
  # and staging buffers are leak-checked here (the coroutine frame pools
  # are already gated off under ASan). detect_leaks is pinned on so a
  # platform default can't silently drop the leak check.
  (cd build-asan && ASAN_OPTIONS=detect_leaks=1 \
      ctest --output-on-failure --timeout 300 -j"$(nproc)")

  echo "=== [3/6] Debug + TSan (parallel search + concurrent cache) ==="
  cmake -B build-tsan -S . -DTILELINK_TSAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-tsan -j --target test_tuning
  # halt_on_error: a data race fails the stage instead of scrolling past.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/test_tuning

  echo "=== [4/6] Bench smoke (tuned configs must beat hand-picked) ==="
  ./build-ci/bench_micro_sim --json build-ci/BENCH_micro_sim.json
  ./build-ci/bench_fig8_mlp --json build-ci/BENCH_fig8.json
  ./build-ci/bench_fig11_e2e --tune-threads 8 \
      --json build-ci/BENCH_fig11.json \
      --cache build-ci/BENCH_fig11_cache.json
  # The flow network's completion-event count is the perf-trajectory key
  # for the simulator hot path; make sure fig8 reported it.
  grep -q '"net.completion_events_per_transfer"' build-ci/BENCH_fig8.json \
      || { echo "missing net.completion_events_per_transfer in BENCH_fig8.json"; exit 1; }
  # Likewise the program-interpreter rung: events/s over RunSpmd only.
  grep -q '"BM_SimulateAgGemmMlp1.events_per_s"' build-ci/BENCH_micro_sim.json \
      || { echo "missing BM_SimulateAgGemmMlp1.events_per_s in BENCH_micro_sim.json"; exit 1; }
  # And the wide event-loop rung: many events sharing each timestamp.
  grep -q '"BM_EventLoopWide/1024.items_per_second"' build-ci/BENCH_micro_sim.json \
      || { echo "missing BM_EventLoopWide/1024.items_per_second in BENCH_micro_sim.json"; exit 1; }
  # Heap allocations per simulated event are deterministic counts, so they
  # gate on committed ceilings: a warm interpreter run allocates only for
  # fresh flags' waiter lists and the host DMA path's tensor copies (0.24;
  # 0.52 before the allocation-free hot path), a warm park/wake loop not at
  # all.
  alloc_ceiling() {
    local key=$1 ceiling=$2 value
    value=$(grep -o "\"$key\": [0-9.eE+-]*" build-ci/BENCH_micro_sim.json \
        | awk '{print $2}')
    [[ -n "$value" ]] || { echo "missing $key in BENCH_micro_sim.json"; exit 1; }
    awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v <= c) }' \
        || { echo "$key = $value exceeds its ceiling $ceiling"; exit 1; }
  }
  alloc_ceiling BM_SimulateAgGemmMlp1.allocs_per_event 0.25
  alloc_ceiling BM_ParkWake.allocs_per_event 0

  echo "=== [5/6] 16-GPU smoke (payload + fused + ag-fused + faults) ==="
  # The generated/hand-built identity suite (test_overlap_gen) already ran
  # under ctest in stages 1-2; this stage gates the *generated* kernel's
  # end-to-end win: --ag-fused fails if the planner-generated ag_gemm_hier
  # loses to the AllGather-then-GEMM compose at any gate shape (including
  # the small-m column-split shape), if the tuner regresses past the seed,
  # if the small-m planner stops column-splitting, or if the functional /
  # fault-injected runs are not bit-exact and checker-clean.
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

  echo "=== [6/6] Serving smoke (continuous batching + online config service) ==="
  # The bench exits nonzero if any of its own gates fail: fleet p99 and
  # per-unseen-shape cold-tune latency bounds, cache hit rate across a
  # cold+warm replica pair, tuned-vs-seed geomean >= 1, bitwise identical
  # trace+cache on a same-seed rerun, and the halved search matching the
  # exhaustive argmin on every tuned MLP shape within 25% of its
  # full-fidelity evaluations.
  ./build-ci/bench_serving --requests 24 --tune-threads 8 \
      --json build-ci/BENCH_serving.json \
      --cache build-ci/BENCH_serving_cache.json
  for key in serving.p99_ms serving.cache_hit_rate serving.tuned_speedup \
             serving.search_eval_frac; do
    grep -q "\"$key\"" build-ci/BENCH_serving.json \
        || { echo "missing $key in BENCH_serving.json"; exit 1; }
  done
fi

echo "CI OK"
