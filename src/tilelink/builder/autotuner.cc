#include "tilelink/builder/autotuner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "common/check.h"

namespace tilelink::tl {
namespace {

// Serialized line sink: every verbose line is formatted into one string and
// written with a single locked fwrite, so lines can never interleave even
// if another thread is printing. Workers themselves never print — all
// verbose output is produced by the serial replay pass, which also keeps
// the line *order* identical to the single-threaded search.
void EmitLine(const std::string& line) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fwrite(line.data(), 1, line.size(), stdout);
}

void PrintCandidate(const char* tag, const TuneCandidate& c, sim::TimeNs cost,
                    const char* suffix) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "[%s] %-60s %8.3f ms%s\n", tag,
                c.Describe().c_str(), static_cast<double>(cost) / 1e6, suffix);
  EmitLine(buf);
}

// Runs `body` on `threads` threads (the calling thread counts as one) and
// joins; the first exception any worker throws is rethrown on the caller.
void RunWorkers(int threads, const std::function<void()>& body) {
  if (threads <= 1) {
    body();
    return;
  }
  std::mutex mu;
  std::exception_ptr err;
  auto guarded = [&body, &mu, &err] {
    try {
      body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!err) err = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(guarded);
  guarded();
  for (std::thread& th : pool) th.join();
  if (err) std::rethrow_exception(err);
}

// Successive halving (active when Search is given a coarse evaluator and
// the space has at least kMinCoarseSpace candidates): keep the best
// kKeepFraction of coarse scores, at least kMinSurvivors.
constexpr double kKeepFraction = 0.125;
constexpr std::size_t kMinSurvivors = 4;
constexpr std::size_t kMinCoarseSpace = 8;

// Sentinels in the shared completed-cost table. Real costs are >= 0 and
// kInfeasible is int64 max, so negatives are free.
constexpr sim::TimeNs kPending = -1;  // not finished yet
constexpr sim::TimeNs kSkipped = -2;  // speculatively pruned by a worker

// Groups candidates by canonical form, serially and in index order:
// group[i] is the index of the first candidate whose canonical form equals
// candidate i's (i itself when it leads its group). A null canonicalizer
// leaves every candidate in a group of its own.
std::vector<std::size_t> GroupByCanonical(
    const std::vector<TuneCandidate>& candidates,
    const Autotuner::CanonicalFn& canonical) {
  std::vector<std::size_t> group(candidates.size());
  std::vector<TuneCandidate> keys;
  keys.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    group[i] = i;
    if (!canonical) continue;
    keys.push_back(canonical(candidates[i]));
    for (std::size_t j = 0; j < i; ++j) {
      if (keys[j] == keys[i]) {
        group[i] = group[j];
        break;
      }
    }
  }
  return group;
}

// Search's full-fidelity finalist pass over `finalists` (indices into
// `candidates`): parallel speculative evaluation + serial replay in
// finalist order (see the determinism note in the header). Each group of
// canonical-equal candidates is simulated once; the replay fans its cost
// out to every member. Appends to `result`'s evaluated/pruned/infeasible
// tallies and sims, updates best/best_cost, and records seed_cost when
// `base` reaches full fidelity.
void FullFidelityPass(const Autotuner::Options& options, int threads,
                      const std::vector<TuneCandidate>& candidates,
                      const std::vector<std::size_t>& finalists,
                      const std::vector<std::size_t>& group,
                      const TuneCandidate& base, const Autotuner::EvalFn& eval,
                      const Autotuner::BoundFn& lower_bound,
                      TuneResult* result) {
  const std::size_t n = finalists.size();
  std::vector<sim::TimeNs> bounds;
  if (lower_bound) {
    bounds.reserve(n);
    for (std::size_t i : finalists) bounds.push_back(lower_bound(candidates[i]));
  }
  // lead[i]: the first finalist position in finalist i's group — the one
  // position whose simulation the whole group shares.
  std::vector<std::size_t> lead(n);
  {
    std::vector<std::size_t> first_pos(candidates.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t& first = first_pos[group[finalists[i]]];
      if (first == n) first = i;
      lead[i] = first;
    }
  }

  // Parallel speculative pass: workers pull finalist positions off a shared
  // counter and record full-fidelity costs in `done`, simulating group
  // leads only. The prune test for position i only consults *completed
  // earlier-indexed* leads, whose costs are upper bounds on the serial
  // best-so-far before i (each such j has bound(j) <= cost(j), so serial
  // would have reached a best no worse than cost(j) by index i). Hence a
  // worker skip implies the serial skip, and everything serial evaluates is
  // evaluated here — just possibly more, which the replay below discards.
  std::vector<std::atomic<sim::TimeNs>> done;
  if (threads > 1 && n > 1) {
    done = std::vector<std::atomic<sim::TimeNs>>(n);
    for (std::atomic<sim::TimeNs>& d : done) {
      d.store(kPending, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> next{0};
    RunWorkers(std::min<int>(threads, static_cast<int>(n)), [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (lead[i] != i) continue;
        if (!bounds.empty()) {
          sim::TimeNs best_done = Autotuner::kInfeasible;
          for (std::size_t j = 0; j < i; ++j) {
            const sim::TimeNs v = done[j].load(std::memory_order_acquire);
            if (v >= 0 && v < best_done) best_done = v;
          }
          if (best_done != Autotuner::kInfeasible && bounds[i] >= best_done) {
            done[i].store(kSkipped, std::memory_order_release);
            continue;
          }
        }
        done[i].store(eval(candidates[finalists[i]]),
                      std::memory_order_release);
      }
    });
  }

  // Serial replay in finalist order: identical control flow to the
  // single-threaded search, with eval() replaced by a per-group lookup.
  // This is where TuneResult, sims and all verbose lines are produced, so
  // all of them are bitwise independent of the thread count.
  std::vector<sim::TimeNs> known(n, kPending);  // by lead position
  for (std::size_t i = 0; i < n; ++i) {
    const TuneCandidate& c = candidates[finalists[i]];
    if (!bounds.empty() && result->best_cost != Autotuner::kInfeasible &&
        bounds[i] >= result->best_cost) {
      result->pruned++;
      if (options.verbose) {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "[tune] %-60s pruned (bound %.3f ms >= best %.3f ms)\n",
                      c.Describe().c_str(),
                      static_cast<double>(bounds[i]) / 1e6,
                      static_cast<double>(result->best_cost) / 1e6);
        EmitLine(buf);
      }
      continue;
    }
    sim::TimeNs& cost = known[lead[i]];
    if (cost == kPending) {
      // First member of its group the serial order reaches: the group's
      // one simulation.
      if (!done.empty()) cost = done[lead[i]].load(std::memory_order_acquire);
      // Not evaluated by a worker: either serial, or the worker skipped a
      // group the serial order evaluates — only possible with an unsound
      // bound (bound > cost somewhere) or with bounds that differ inside a
      // group. Recover determinism by evaluating it here.
      if (cost < 0) cost = eval(c);
      if (cost != Autotuner::kInfeasible) result->sims++;
    }
    if (cost == Autotuner::kInfeasible) {
      result->infeasible++;
      if (options.verbose) {
        char buf[512];
        std::snprintf(buf, sizeof(buf), "[tune] %-60s infeasible\n",
                      c.Describe().c_str());
        EmitLine(buf);
      }
      continue;
    }
    if (c == base) result->seed_cost = cost;
    result->evaluated.emplace_back(c, cost);
    const bool improved = cost < result->best_cost;
    if (improved) {
      result->best = c;
      result->best_cost = cost;
    }
    if (options.verbose) {
      PrintCandidate("tune", c, cost, improved ? "  <- best" : "");
    }
  }
}

}  // namespace

TuneResult Autotuner::Search(const TuningSpace& space,
                             const TuneCandidate& base, const EvalFn& eval,
                             const BoundFn& lower_bound, const EvalFn& coarse,
                             const CanonicalFn& canonical) const {
  std::vector<TuneCandidate> candidates = space.Enumerate(base);
  TL_CHECK_MSG(!candidates.empty(), "empty tuning space");
  // The base (seed) config always gets a full-fidelity run: a halved or
  // pruned search can then never return something worse than the seed.
  if (std::find(candidates.begin(), candidates.end(), base) ==
      candidates.end()) {
    candidates.push_back(base);
  }
  const std::vector<std::size_t> group =
      GroupByCanonical(candidates, canonical);

  const int threads = std::max(1, options_.threads);

  TuneResult result;
  result.best_cost = kInfeasible;

  // --- Successive halving: coarse-score everyone, keep the top fraction. --
  std::vector<std::size_t> finalists;  // indices into `candidates`
  if (coarse && candidates.size() >= kMinCoarseSpace) {
    // The coarse round is a pure map (no pruning), so sharding it is
    // trivially deterministic: workers score each group's first member by
    // index, and the fan-out and classification below run serially in
    // index order.
    std::vector<std::size_t> leads;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (group[i] == i) leads.push_back(i);
    }
    std::vector<sim::TimeNs> coarse_cost(candidates.size(), kPending);
    {
      std::atomic<std::size_t> next{0};
      RunWorkers(std::min<int>(threads, static_cast<int>(leads.size())),
                 [&] {
                   for (;;) {
                     const std::size_t l =
                         next.fetch_add(1, std::memory_order_relaxed);
                     if (l >= leads.size()) return;
                     coarse_cost[leads[l]] = coarse(candidates[leads[l]]);
                   }
                 });
    }
    for (std::size_t l : leads) {
      if (coarse_cost[l] != kInfeasible) result.sims++;
    }
    std::vector<std::pair<sim::TimeNs, std::size_t>> scored;
    std::vector<std::size_t> unscored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const sim::TimeNs cost = coarse_cost[group[i]];
      ++result.coarse_evals;
      if (cost == kInfeasible) {
        // A coarse evaluator may judge feasibility on a shrunken problem
        // whose divisibility constraints are tighter: defer to the
        // full-fidelity round (a cheap feasibility check there) instead of
        // dropping a possibly-feasible candidate.
        unscored.push_back(i);
        if (options_.verbose) {
          PrintCandidate("tune/coarse", candidates[i], 0,
                         "  coarse-infeasible (deferred)");
        }
        continue;
      }
      scored.emplace_back(cost, i);
      if (options_.verbose) {
        PrintCandidate("tune/coarse", candidates[i], cost, "");
      }
    }
    std::stable_sort(scored.begin(), scored.end());
    const std::size_t keep = std::min<std::size_t>(
        scored.size(),
        std::max<std::size_t>(
            kMinSurvivors,
            static_cast<std::size_t>(
                kKeepFraction * static_cast<double>(scored.size()) + 0.999)));
    result.halved = static_cast<int>(scored.size() - keep);
    finalists.reserve(keep + unscored.size() + 1);
    // Survivors are in ascending coarse-score order, so the lower bound
    // starts pruning right after the first (likely-argmin) simulation.
    for (std::size_t i = 0; i < keep; ++i) {
      finalists.push_back(scored[i].second);
    }
    for (std::size_t i : unscored) finalists.push_back(i);
    if (std::none_of(finalists.begin(), finalists.end(),
                     [&](std::size_t i) { return candidates[i] == base; })) {
      finalists.push_back(static_cast<std::size_t>(
          std::find(candidates.begin(), candidates.end(), base) -
          candidates.begin()));
    }
  } else {
    finalists.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) finalists[i] = i;
    if (lower_bound) {
      // Visit in ascending-bound order: the likely argmin is simulated
      // first, which makes the bound prune most of the rest.
      std::vector<std::pair<sim::TimeNs, std::size_t>> order;
      order.reserve(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        order.emplace_back(lower_bound(candidates[i]), i);
      }
      std::stable_sort(order.begin(), order.end());
      for (std::size_t i = 0; i < order.size(); ++i) {
        finalists[i] = order[i].second;
      }
    }
  }

  // --- Full-fidelity evaluation with lower-bound pruning. -----------------
  FullFidelityPass(options_, threads, candidates, finalists, group, base,
                   eval, lower_bound, &result);
  TL_CHECK_MSG(result.best_cost != kInfeasible,
               "every candidate in the tuning space was infeasible");
  return result;
}

}  // namespace tilelink::tl
