// Memory-consistency checker (the testable analog of §4.2 of the paper).
//
// Simulated kernels register writes as (buffer, element range, start, end)
// intervals and reads as (buffer, element range, time) probes. A read that
// lands inside an in-flight write interval is a race: the consumer observed
// data before the producer's release made it visible. TileLink-lowered code
// never triggers this (waits carry acquire, notifies carry release and are
// scheduled after store completion); the deliberately-unsafe compiler mode
// used in fault-injection tests does.
//
// Semantics (pinned by tests/test_runtime.cc):
//  * A write interval [start, end) is half-open in time: a read at exactly
//    `end` is safe (publication and consumption at the same completion
//    instant are the correct acquire/release rendezvous), a read at exactly
//    `start` races.
//  * Element ranges [lo, hi) are half-open too; empty ranges (hi <= lo)
//    never report and are not stored.
//  * A read-modify-write actor probes its input at its wake instant and
//    records its own mutation window starting strictly after that probe
//    ([wake + 1, end)): its program-ordered self-access never matches,
//    while any other actor reading inside the mutation window still does.
//
// Scale: intervals are retired past a completed-time watermark so e2e-scale
// runs (the functional 16-GPU collectives register per-chunk intervals) stay
// bounded in memory and audit time. Writers that commit at completion time
// (transfer start < record time) must bracket the transfer with
// OpenWrite/CloseWrite so the watermark cannot advance past an in-flight
// write and retire the reads it still needs to audit.
//
// Index: each buffer keeps its live writes and its live read probes in
// record order, plus a bucket index over their element ranges (see
// IntervalBuckets below), so a record or a read check visits only the
// intervals filed under the element buckets its range covers instead of
// every live interval of the buffer. The index is a hash table whose size
// follows the live interval count, never the buffer's extent. Matches are
// reported in record order, exactly as a scan of every live interval would
// report them. Retirement rebuilds the index of every buffer it touched.
// Writer and reader names are interned: an interval holds a name id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace tilelink::sim {
class TraceRecorder;
}  // namespace tilelink::sim

namespace tilelink::rt {

class Buffer;

// A bucket index over the element ranges of a list of intervals (items
// 0..n-1). Elements are grouped into buckets of 2^shift; an item is filed
// under every bucket its range covers, in a power-of-two hash table of
// chained entries that grows with the entry count. An item covering more
// than kMaxSpan buckets is filed once in a `wide` list instead, and a query
// covering more buckets than there are entries walks every item, so one
// whole-buffer range costs no more than a scan. The bucket width is the
// first item's length when the index is empty and the items' median length
// at each rebuild (a power of two, at least 2^kMinShift), so a typical item
// covers one or two buckets. Memory grows with the items, not with the
// element extent.
class IntervalBuckets {
 public:
  // Re-files `n` items; range(i) returns item i's [lo, hi) as a pair.
  template <typename RangeFn>
  void Rebuild(std::size_t n, const RangeFn& range);
  // Files item `item` (the next index, items are appended in order).
  void Insert(uint32_t item, int64_t lo, int64_t hi);
  // Calls fn(item) once for every item that may overlap [lo, hi) (a
  // superset of the overlapping items, in no particular order); returns the
  // number of entries and items it looked at.
  template <typename Fn>
  uint64_t ForEachCandidate(int64_t lo, int64_t hi, const Fn& fn) const;

 private:
  struct Entry {
    int64_t bucket;
    uint32_t item;
    uint32_t next : 31;  // next entry in the slot's chain, or kNoEntry
    uint32_t first : 1;  // `bucket` is the first one the item covers
  };
  static constexpr uint32_t kNoEntry = (1u << 31) - 1;
  static constexpr int kMinShift = 6;  // 64-element buckets at least
  static constexpr int64_t kMaxSpan = 16;
  static constexpr int kMinSlotBits = 4;

  std::size_t SlotOf(int64_t bucket) const {
    return static_cast<std::size_t>(
        (static_cast<uint64_t>(bucket) * 0x9E3779B97F4A7C15ull) >>
        (64 - slot_bits_));
  }

  // Buckets of the smallest power of two >= `length` (at least 2^kMinShift).
  void SizeBuckets(int64_t length);
  void Link(uint32_t entry);
  void Grow();

  int shift_ = kMinShift;
  int slot_bits_ = kMinSlotBits;
  std::size_t items_ = 0;
  std::vector<uint32_t> heads_;  // per slot: first entry, or kNoEntry
  std::vector<Entry> entries_;
  std::vector<uint32_t> wide_;   // items covering more than kMaxSpan buckets
};

class ConsistencyChecker {
 public:
  struct Violation {
    // kReadWrite: a read probed inside an in-flight write interval.
    // kWriteWrite: two in-flight write intervals on the same buffer overlap
    // in both element range and time (two writers racing on one range —
    // e.g. a mis-indexed rail staging slot receiving two concurrent NIC
    // chunks). For kWriteWrite the "read" fields describe the
    // later-recorded write: lo/hi its range, read_time its start, reader
    // its writer name.
    enum class Kind { kReadWrite, kWriteWrite };
    const Buffer* buffer;
    int64_t lo, hi;           // read range
    sim::TimeNs read_time;
    sim::TimeNs write_start;
    sim::TimeNs write_end;
    std::string reader;
    std::string writer;
    Kind kind = Kind::kReadWrite;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Announces a write that will be recorded at its completion time.
  // Retirement never advances past the earliest open start, so a racing
  // read probed while this write is in flight survives until the
  // order-independent audit in RecordWrite sees it. Returns a token for
  // CloseWrite (0 when the checker is disabled).
  uint64_t OpenWrite(sim::TimeNs start);
  void CloseWrite(uint64_t token);

  // Registers a write of [lo, hi) on buf spanning [start, end) sim-time.
  // Also audits previously probed reads whose time falls inside this
  // interval (writes commit at transfer completion, so a racing read may
  // have been probed first — the check must be order-independent), and
  // previously recorded writes whose interval overlaps this one in both
  // range and time (write-write race). An instantaneous write (start ==
  // end) models a store committing at one point: it races a window exactly
  // like a read does (inside or at the window's start races, at its end is
  // the correct handoff), and two instantaneous writes never race.
  // `atomic` marks a commutative accumulation (red.add-style reduction
  // epilogue): two atomic windows may overlap freely — concurrent per-peer
  // reducers folding into one accumulator are legal — but an atomic window
  // overlapping a plain write (e.g. a chunk copy landing mid-reduction)
  // still races, as do two plain writes (a mis-indexed staging slot).
  // OpenWrite bracketing keeps both audits sound under retirement: a live
  // in-flight write pins the watermark, so an earlier overlapping interval
  // cannot retire before the later one is recorded.
  void RecordWrite(const Buffer* buf, int64_t lo, int64_t hi,
                   sim::TimeNs start, sim::TimeNs end,
                   const std::string& writer, bool atomic = false);

  // Probes a read of [lo, hi) at time t; records a violation if it overlaps
  // an in-flight write (already recorded or recorded later).
  void CheckRead(const Buffer* buf, int64_t lo, int64_t hi, sim::TimeNs t,
                 const std::string& reader);

  // Drops write intervals that ended at or before `watermark` and read
  // probes strictly before it — they can no longer participate in any
  // violation. The effective watermark is clamped to the earliest open
  // write so in-flight audits are never lost. Callers must pass a
  // watermark <= the current simulated time. Violations are never dropped.
  void RetireUpTo(sim::TimeNs watermark);

  // Auto-retirement: every `n` recorded writes, RetireUpTo(latest completed
  // time seen). 0 disables. Defaults to kDefaultAutoRetirePeriod so
  // long-running functional simulations stay bounded without manual calls.
  static constexpr std::size_t kDefaultAutoRetirePeriod = 4096;
  void set_auto_retire_period(std::size_t n) { auto_retire_period_ = n; }

  // Live/retired interval counts (for the retirement regression tests).
  std::size_t live_writes() const;
  std::size_t live_reads() const;
  std::size_t retired_intervals() const { return retired_; }

  // Index work (deterministic): RecordWrite and CheckRead calls that
  // audited a non-empty range, and the live intervals those audits looked
  // at through the bucket index.
  uint64_t audit_calls() const { return audit_calls_; }
  uint64_t intervals_visited() const { return intervals_visited_; }

  const std::vector<Violation>& violations() const { return violations_; }
  void Clear();

  // --- tracing ---
  // Emits live-write/live-read/retired counters onto trace process `pid`
  // ("checker" counter tracks): sampled every kTraceSamplePeriod recorded
  // writes and at every retirement, so the timeline shows checker pressure
  // without one counter point per interval. Null recorder disables.
  static constexpr std::size_t kTraceSamplePeriod = 64;
  void set_trace(sim::TraceRecorder* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    records_since_trace_ = 0;
  }

 private:
  // Writer and reader names are kept once, in names_; intervals hold ids.
  struct WriteInterval {
    int64_t lo, hi;
    sim::TimeNs start, end;
    uint32_t writer;
    bool atomic;
  };
  struct ReadProbe {
    int64_t lo, hi;
    sim::TimeNs t;
    uint32_t reader;
  };
  // One buffer's live intervals of one kind, in record order, and their
  // bucket index.
  template <typename Item>
  struct Lane {
    std::vector<Item> items;
    IntervalBuckets index;

    void Add(Item item);
    void Reindex();
    // Calls fn(item) for every live item matching `hit`, in record order;
    // counts the intervals looked at into *visited.
    template <typename Hit, typename Fn>
    void ForEachHit(int64_t lo, int64_t hi, const Hit& hit, const Fn& fn,
                    uint64_t* visited) const;
  };

  // The id of `name` in names_, added on first use.
  uint32_t NameId(const std::string& name);
  void MaybeAutoRetire();
  // Emits the live/retired counter sample at sim-time `ts` (trace only).
  void TraceCounters(sim::TimeNs ts);

  bool enabled_ = false;
  std::unordered_map<const Buffer*, Lane<WriteInterval>> writes_;
  std::unordered_map<const Buffer*, Lane<ReadProbe>> reads_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  std::vector<std::string> names_;  // by id
  std::vector<Violation> violations_;
  std::map<uint64_t, sim::TimeNs> open_writes_;  // token -> start
  uint64_t next_token_ = 1;
  sim::TimeNs horizon_ = 0;  // latest completed time seen
  std::size_t auto_retire_period_ = kDefaultAutoRetirePeriod;
  std::size_t records_since_retire_ = 0;
  std::size_t retired_ = 0;
  uint64_t audit_calls_ = 0;
  uint64_t intervals_visited_ = 0;
  sim::TraceRecorder* trace_ = nullptr;  // non-owning
  int trace_pid_ = -1;
  std::size_t records_since_trace_ = 0;
};

}  // namespace tilelink::rt
