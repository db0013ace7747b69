// TunedConfigCache: per-shape store of autotuned kernel configs.
//
// The e2e model sweep tunes every fused kernel it composes; identical
// layers (and identical shapes across models) share one search. Keys
// combine the kernel kind, the problem shape, and a MachineSpec fingerprint
// so a cache never leaks configs across machines. The whole cache
// round-trips through a small JSON document, letting benchmarks warm-start
// from a previous run's search results (scripts/ci.sh keeps one per bench).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine_spec.h"
#include "sim/time.h"
#include "tilelink/builder/tuning_space.h"

namespace tilelink::tl {

// Fingerprint of the cost model's calibration: a hash of its outputs at
// fixed probe points plus the simulator-billed latencies. Part of every
// cache key, so recalibration invalidates cached costs instead of silently
// serving them. Floating-point parameters hash their canonical bit pattern
// (-0.0 normalized to 0.0, so numerically identical calibrations share one
// generation); a NaN parameter throws tilelink::Error.
uint32_t CostCalibrationHash(const sim::MachineSpec& spec);

struct TunedEntry {
  TuneCandidate config;
  sim::TimeNs cost = 0;  // simulated makespan of `config`
  // Serving-path accounting (serialized; files written before these fields
  // existed parse with both at 0, meaning "unknown"). Both are produced by
  // the deterministic search replay, so they are as thread-count- and
  // rerun-invariant as config/cost.
  sim::TimeNs seed_cost = 0;  // full-fidelity cost of the search's seed
  int full_evals = 0;         // candidates evaluated at full fidelity

  friend bool operator==(const TunedEntry&, const TunedEntry&) = default;
};

// Online-config-service counters (stats() accessor). Hit/miss/store counts
// are the search-avoidance tallies GetOrTune always kept; warm_start_ns and
// max_tune_ns are *wall-clock* nanoseconds spent inside GetOrTune's tune()
// callbacks — the cold-start latency a warm-started cache avoids, and the
// largest single search (the serving path's per-unseen-shape bound). Wall
// times are observability only and never serialized: cache files must stay
// bitwise identical across reruns and thread counts.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t stores = 0;     // Put + GetOrTune-miss stores (incl. overwrites)
  int64_t evictions = 0;  // LRU evictions under SetCapacity
  int64_t warm_start_ns = 0;
  int64_t max_tune_ns = 0;
};

// Thread safety: every member locks an internal mutex, so one cache can be
// shared by concurrent tuners (the e2e estimator tunes independent layers
// in parallel). GetOrTune deliberately drops the lock while `tune` runs —
// searches take seconds and serializing them would defeat the parallelism.
// Two threads missing the same key may therefore both search, but searches
// are deterministic, so they store identical entries and the cache contents
// stay bitwise independent of the interleaving; only the hit/miss tallies
// (which count searches avoided/performed) can vary. Find()'s pointer is
// only stable while no other thread mutates the cache — concurrent callers
// should use GetOrTune, which returns by value.
//
// Measured entries: the cache marks each entry a GetOrTune search in this
// process stored. Its `cost` is then the full-fidelity simulation of its
// `config` by the code now running, so a caller may use it instead of
// simulating the config again. Put and FromJson clear the mark: an entry
// loaded from a file or planted by hand carries a cost some other build
// (or nobody) measured. The mark is not part of TunedEntry, is never
// serialized, and GetOrTune reads it under the lock it reads the entry
// under.
class TunedConfigCache {
 public:
  // "kind/d0xd1x.../R8.n8.sm132.nv150.c<hash>": stable, human-greppable
  // key; the trailing component is CostCalibrationHash(spec).
  static std::string Key(const std::string& kind,
                         const std::vector<int64_t>& dims,
                         const sim::MachineSpec& spec);

  // nullptr on miss. The pointer is invalidated by Put/LoadJson.
  const TunedEntry* Find(const std::string& key) const;
  // Stores `entry` unmarked (see "Measured entries" above).
  void Put(const std::string& key, const TunedEntry& entry);

  // Returns the cached entry, running `tune` (and storing its result,
  // marked measured) on a miss. This is the one call sites use: every
  // config flows through here, so hits()/misses() count real searches
  // avoided/performed. Returned by value: a reference into the map would
  // race with concurrent Put/LoadJson overwrites. When `measured` is
  // non-null it receives the returned entry's mark.
  TunedEntry GetOrTune(const std::string& key,
                       const std::function<TunedEntry()>& tune,
                       bool* measured = nullptr);

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  int hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(stats_.hits);
  }
  int misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(stats_.misses);
  }
  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  // Online-config-service mode: a capacity > 0 bounds the entry count, with
  // least-recently-*used* eviction (GetOrTune hits/stores and Puts refresh
  // recency; Find and serialization do not). 0 (the default) disables
  // eviction — the offline benches keep every search. Shrinking the
  // capacity below the current size evicts immediately.
  void SetCapacity(std::size_t max_entries);

  // Snapshot of every entry in key order (the ToJson order) — the config
  // service derives its tuned-vs-seed speedup stats from this.
  std::vector<std::pair<std::string, TunedEntry>> Entries() const;

  // Drops entries whose key's calibration suffix does not match
  // `calibration_hash` — the generations a recalibration orphaned. Without
  // this, a warm-started cache file grows by one full generation per
  // recalibration and never shrinks. Returns the number removed.
  std::size_t PruneStaleCalibration(uint32_t calibration_hash);

  // Deterministic (sorted-key) JSON document of every entry.
  std::string ToJson() const;
  // Merges entries parsed from `json` into the cache; false on malformed
  // input, in which case the cache is left untouched (all-or-nothing).
  // Rejected inputs include anything this cache does not write: trailing
  // content after the root object, unknown fields, and integer literals
  // outside int64 (INT64_MIN's magnitude overflows the positive
  // accumulator and is rejected rather than wrapped). Duplicate keys —
  // across entries or repeated fields within one entry — are last-wins.
  bool FromJson(const std::string& json);

  // File convenience wrappers; Load returns false if the file is absent or
  // malformed.
  bool SaveFile(const std::string& path) const;
  bool LoadFile(const std::string& path);

 private:
  // Pre: mu_ held. Records a store with its mark, refreshes recency, evicts
  // LRU overflow.
  void StoreLocked(const std::string& key, const TunedEntry& entry,
                   bool measured);
  void TouchLocked(const std::string& key);
  void EvictOverflowLocked();

  mutable std::mutex mu_;
  std::map<std::string, TunedEntry> entries_;
  // Keys of the measured entries (a subset of entries_' keys).
  std::set<std::string> measured_;
  // Monotonic recency ticks for LRU eviction; entries loaded from JSON get
  // ticks in key order. Not serialized (recency is a runtime property).
  std::map<std::string, uint64_t> recency_;
  uint64_t tick_ = 0;
  std::size_t capacity_ = 0;  // 0 = unbounded
  CacheStats stats_;
};

}  // namespace tilelink::tl
