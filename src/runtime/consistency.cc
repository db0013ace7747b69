#include "runtime/consistency.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/inline_vector.h"
#include "sim/trace.h"

namespace tilelink::rt {

template <typename RangeFn>
void IntervalBuckets::Rebuild(std::size_t n, const RangeFn& range) {
  items_ = 0;
  entries_.clear();
  wide_.clear();
  heads_.clear();
  if (n == 0) return;  // the next Insert sizes the buckets afresh
  std::vector<int64_t> lengths(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = range(i);
    lengths[i] = hi - lo;
  }
  std::nth_element(lengths.begin(), lengths.begin() + n / 2, lengths.end());
  SizeBuckets(lengths[n / 2]);
  slot_bits_ = std::max<int>(kMinSlotBits, std::bit_width(n));
  heads_.assign(std::size_t{1} << slot_bits_, kNoEntry);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = range(i);
    Insert(static_cast<uint32_t>(i), lo, hi);
  }
}

void IntervalBuckets::Insert(uint32_t item, int64_t lo, int64_t hi) {
  TL_DCHECK(item == items_);
  ++items_;
  if (heads_.empty()) {
    // The first item of an empty index sets the bucket width.
    SizeBuckets(hi - lo);
    slot_bits_ = kMinSlotBits;
    heads_.assign(std::size_t{1} << slot_bits_, kNoEntry);
  }
  const int64_t b0 = lo >> shift_;
  const int64_t b1 = (hi - 1) >> shift_;
  if (b1 - b0 >= kMaxSpan) {
    wide_.push_back(item);
    return;
  }
  for (int64_t b = b0; b <= b1; ++b) {
    const auto e = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{b, item, kNoEntry, b == b0 ? 1u : 0u});
    Link(e);
  }
  if (entries_.size() > heads_.size()) Grow();
}

void IntervalBuckets::SizeBuckets(int64_t length) {
  shift_ = std::max<int>(kMinShift,
                         std::bit_width(static_cast<uint64_t>(length - 1)));
}

void IntervalBuckets::Link(uint32_t entry) {
  uint32_t& head = heads_[SlotOf(entries_[entry].bucket)];
  entries_[entry].next = head;
  head = entry;
}

void IntervalBuckets::Grow() {
  ++slot_bits_;
  heads_.assign(std::size_t{1} << slot_bits_, kNoEntry);
  for (uint32_t e = 0; e < entries_.size(); ++e) Link(e);
}

template <typename Fn>
uint64_t IntervalBuckets::ForEachCandidate(int64_t lo, int64_t hi,
                                           const Fn& fn) const {
  const int64_t b0 = lo >> shift_;
  const int64_t b1 = (hi - 1) >> shift_;
  if (static_cast<uint64_t>(b1 - b0) >= entries_.size()) {
    // Covers more buckets than there are entries: walk every item.
    for (uint32_t i = 0; i < items_; ++i) fn(i);
    return items_;
  }
  uint64_t visited = wide_.size();
  for (uint32_t i : wide_) fn(i);
  for (int64_t b = b0; b <= b1; ++b) {
    for (uint32_t e = heads_[SlotOf(b)]; e != kNoEntry;
         e = entries_[e].next) {
      const Entry& entry = entries_[e];
      ++visited;
      // An item filed under several covered buckets is reported once: at
      // the first bucket both it and the query cover.
      if (entry.bucket == b && (entry.first || b == b0)) fn(entry.item);
    }
  }
  return visited;
}

template <typename Item>
void ConsistencyChecker::Lane<Item>::Add(Item item) {
  index.Insert(static_cast<uint32_t>(items.size()), item.lo, item.hi);
  items.push_back(std::move(item));
}

template <typename Item>
void ConsistencyChecker::Lane<Item>::Reindex() {
  index.Rebuild(items.size(), [this](std::size_t i) {
    return std::pair<int64_t, int64_t>(items[i].lo, items[i].hi);
  });
}

template <typename Item>
template <typename Hit, typename Fn>
void ConsistencyChecker::Lane<Item>::ForEachHit(int64_t lo, int64_t hi,
                                                const Hit& hit, const Fn& fn,
                                                uint64_t* visited) const {
  // Hits are rare (each is a violation), so they are collected, then put
  // back in record order: a scan of `items` would report them that way.
  InlineVector<uint32_t, 4> hits;
  *visited += index.ForEachCandidate(lo, hi, [&](uint32_t i) {
    const Item& item = items[i];
    if (lo < item.hi && item.lo < hi && hit(item)) hits.push_back(i);
  });
  std::sort(hits.begin(), hits.end());
  for (uint32_t i : hits) fn(items[i]);
}

void ConsistencyChecker::TraceCounters(sim::TimeNs ts) {
  if (trace_ == nullptr || trace_pid_ < 0) return;
  trace_->AddCounter(trace_pid_, "checker.live", "writes", ts,
                     static_cast<double>(live_writes()));
  trace_->AddCounter(trace_pid_, "checker.live", "reads", ts,
                     static_cast<double>(live_reads()));
  trace_->AddCounter(trace_pid_, "checker.retired", "intervals", ts,
                     static_cast<double>(retired_));
}

uint64_t ConsistencyChecker::OpenWrite(sim::TimeNs start) {
  if (!enabled_) return 0;
  const uint64_t token = next_token_++;
  open_writes_.emplace(token, start);
  return token;
}

void ConsistencyChecker::CloseWrite(uint64_t token) {
  if (token == 0) return;
  open_writes_.erase(token);
}

void ConsistencyChecker::RecordWrite(const Buffer* buf, int64_t lo, int64_t hi,
                                     sim::TimeNs start, sim::TimeNs end,
                                     const std::string& writer, bool atomic) {
  if (!enabled_) return;
  if (lo >= hi) return;  // empty element ranges never report
  // Write-write audit: two in-flight writes overlapping in range and time
  // race regardless of commit order — unless both are commutative atomic
  // accumulations. Window-vs-window overlap is max(starts) < min(ends);
  // an instantaneous write (start == end) commits at one point and races
  // a window exactly like a read does ([start, end) half-open: at the
  // window's start races, at its end is the correct handoff). Two
  // instantaneous writes never time-overlap.
  ++audit_calls_;
  Lane<WriteInterval>& writes = writes_[buf];
  writes.ForEachHit(
      lo, hi,
      [&](const WriteInterval& w) {
        if (atomic && w.atomic) return false;
        if (start == end) return w.start <= start && start < w.end;
        if (w.start == w.end) return start <= w.start && w.start < end;
        return std::max(start, w.start) < std::min(end, w.end);
      },
      [&](const WriteInterval& w) {
        violations_.push_back(Violation{buf, lo, hi, start, w.start, w.end,
                                        writer, names_[w.writer],
                                        Violation::Kind::kWriteWrite});
      },
      &intervals_visited_);
  writes.Add(WriteInterval{lo, hi, start, end, NameId(writer), atomic});
  horizon_ = std::max(horizon_, end);
  // Order-independent audit: a read probed earlier may fall inside this
  // just-committed interval.
  auto it = reads_.find(buf);
  if (it != reads_.end()) {
    it->second.ForEachHit(
        lo, hi,
        [&](const ReadProbe& r) { return start <= r.t && r.t < end; },
        [&](const ReadProbe& r) {
          violations_.push_back(
              Violation{buf, r.lo, r.hi, r.t, start, end, names_[r.reader],
                        writer});
        },
        &intervals_visited_);
  }
  ++records_since_retire_;
  if (trace_ != nullptr && ++records_since_trace_ >= kTraceSamplePeriod) {
    records_since_trace_ = 0;
    TraceCounters(horizon_);
  }
  MaybeAutoRetire();
}

void ConsistencyChecker::CheckRead(const Buffer* buf, int64_t lo, int64_t hi,
                                   sim::TimeNs t, const std::string& reader) {
  if (!enabled_) return;
  if (lo >= hi) return;  // empty element ranges never report
  ++audit_calls_;
  reads_[buf].Add(ReadProbe{lo, hi, t, NameId(reader)});
  horizon_ = std::max(horizon_, t);
  auto it = writes_.find(buf);
  if (it == writes_.end()) return;
  it->second.ForEachHit(
      lo, hi,
      [&](const WriteInterval& w) { return w.start <= t && t < w.end; },
      [&](const WriteInterval& w) {
        violations_.push_back(
            Violation{buf, lo, hi, t, w.start, w.end, reader,
                      names_[w.writer]});
      },
      &intervals_visited_);
}

uint32_t ConsistencyChecker::NameId(const std::string& name) {
  const auto [it, added] =
      name_ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (added) names_.push_back(name);
  return it->second;
}

void ConsistencyChecker::RetireUpTo(sim::TimeNs watermark) {
  // An open (announced but unrecorded) write bounds how far probes may be
  // discarded: its order-independent audit still needs every read probed
  // since its start.
  sim::TimeNs w = watermark;
  if (!open_writes_.empty()) {
    for (const auto& [token, start] : open_writes_) {
      w = std::min(w, start);
    }
  }
  // Retiring shifts the survivors' indices: their lane is re-indexed.
  auto retire = [this](auto& lanes, const auto& dead) {
    for (auto it = lanes.begin(); it != lanes.end();) {
      auto& lane = it->second;
      const std::size_t retired = std::erase_if(lane.items, dead);
      retired_ += retired;
      if (lane.items.empty()) {
        it = lanes.erase(it);
        continue;
      }
      if (retired > 0) lane.Reindex();
      ++it;
    }
  };
  retire(writes_, [w](const WriteInterval& wi) { return wi.end <= w; });
  // Keep reads at exactly `w`: a future write may start at `w` and a read
  // at a write's start races.
  retire(reads_, [w](const ReadProbe& r) { return r.t < w; });
  records_since_retire_ = 0;
  TraceCounters(std::max(watermark, horizon_));
}

void ConsistencyChecker::MaybeAutoRetire() {
  if (auto_retire_period_ == 0 ||
      records_since_retire_ < auto_retire_period_) {
    return;
  }
  // `horizon_` only ever holds completed event times, so it is a valid
  // (past-or-present) watermark.
  RetireUpTo(horizon_);
}

std::size_t ConsistencyChecker::live_writes() const {
  std::size_t n = 0;
  for (const auto& [buf, lane] : writes_) n += lane.items.size();
  return n;
}

std::size_t ConsistencyChecker::live_reads() const {
  std::size_t n = 0;
  for (const auto& [buf, lane] : reads_) n += lane.items.size();
  return n;
}

void ConsistencyChecker::Clear() {
  writes_.clear();
  reads_.clear();
  violations_.clear();
  open_writes_.clear();
  name_ids_.clear();
  names_.clear();
  horizon_ = 0;
  records_since_retire_ = 0;
  retired_ = 0;
  audit_calls_ = 0;
  intervals_visited_ = 0;
}

}  // namespace tilelink::rt
