// Autotuner: search over a TuningSpace scored by the simulator.
//
// The evaluator runs one candidate end-to-end (typically: build a
// timing-only World, construct the kernel with the candidate's knobs,
// RunSpmd, return the makespan). Two optional accelerators make large
// spaces tractable:
//
//  - An analytic lower bound — built from sim::CostModel formulas (the
//    overlap-aware max(compute, comm) + launch latency), which cost
//    nanoseconds instead of a full DES run — prunes candidates that cannot
//    beat the best simulated time found so far. When a bound is supplied,
//    candidates are visited in ascending-bound order so the likely argmin
//    is simulated first and the bound prunes the rest.
//
//  - A coarse evaluator (same metric on a cheapened simulation — e.g. the
//    reduction loop collapsed to one k-step) enables successive halving,
//    the tuner's one reduced-fidelity mechanism: every candidate of a
//    space with at least 8 entries is scored coarsely, and only the best
//    eighth (at least 4) survive to full-fidelity simulation. The base
//    candidate is always re-evaluated at full fidelity, so a halved search
//    can never return a config worse than the seed it started from.
//
// Candidates the evaluator rejects as infeasible (by returning kInfeasible)
// are skipped.
//
// Parallel determinism (Options::threads > 1): both the coarse round and
// the full-fidelity round shard candidates across a pool of worker threads
// pulling indices from a shared atomic counter, one evaluator call per
// candidate on the worker's own Simulator/World (evaluators build fresh
// worlds per call, so there is no shared mutable state). Pruning stays
// effective across workers through a shared completed-cost table: a worker
// about to evaluate candidate i skips it only if some *earlier-indexed*
// candidate j < i has already finished with cost <= bound(i). Because a
// sound bound satisfies bound(j) <= cost(j), any such j would also have
// forced the serial search to prune i, so the speculative skip can never
// drop a candidate the serial order would have simulated. A final serial
// replay in candidate-index order then rebuilds TuneResult exactly as the
// single-threaded search would have: identical argmin (ties broken by
// enumeration index, never completion order), identical `evaluated` list,
// identical pruned/infeasible/halved counts, and identical verbose output
// — bitwise the same for every thread count.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "sim/time.h"
#include "tilelink/builder/tuning_space.h"

namespace tilelink::tl {

struct TuneResult {
  TuneCandidate best;
  sim::TimeNs best_cost = 0;
  // Every (candidate, simulated cost) pair actually evaluated at full
  // fidelity, in evaluation order.
  std::vector<std::pair<TuneCandidate, sim::TimeNs>> evaluated;
  int pruned = 0;        // skipped via the lower bound
  int infeasible = 0;    // rejected by the full-fidelity evaluator
  int halved = 0;        // eliminated by the coarse (halving) round
  int coarse_evals = 0;  // coarse-evaluator scores paid
  // Full-fidelity cost of the seed (base) candidate. Search always makes
  // the seed a finalist, so this is 0 (not measured) only when the seed's
  // lower bound met the best cost found before it or the seed was
  // infeasible.
  sim::TimeNs seed_cost = 0;
};

class Autotuner {
 public:
  // Sentinel: the evaluator returns this for candidates whose constraints
  // (divisibility, capacity) the kernel cannot satisfy.
  static constexpr sim::TimeNs kInfeasible =
      std::numeric_limits<sim::TimeNs>::max();

  using EvalFn = std::function<sim::TimeNs(const TuneCandidate&)>;
  using BoundFn = std::function<sim::TimeNs(const TuneCandidate&)>;

  struct Options {
    bool verbose = false;  // print one line per candidate to stdout
    // Worker threads for candidate evaluation (<= 1 runs fully serial).
    // Any value yields a bitwise-identical TuneResult; see the determinism
    // note in the file comment.
    int threads = 1;
  };

  Autotuner() = default;
  explicit Autotuner(Options options) : options_(options) {}

  // Returns the argmin candidate over space.Enumerate(base) plus the base
  // itself. `lower_bound` and `coarse` may be null. Requires a non-empty,
  // not-all-infeasible space.
  TuneResult Search(const TuningSpace& space, const TuneCandidate& base,
                    const EvalFn& eval, const BoundFn& lower_bound = nullptr,
                    const EvalFn& coarse = nullptr) const;

 private:
  Options options_{};
};

}  // namespace tilelink::tl
