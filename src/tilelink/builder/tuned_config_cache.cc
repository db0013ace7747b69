#include "tilelink/builder/tuned_config_cache.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/string_utils.h"
#include "sim/cost_model.h"

namespace tilelink::tl {
namespace {

void HashMix(uint32_t* h, uint64_t value) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    *h ^= static_cast<uint32_t>((value >> (8 * i)) & 0xff);
    *h *= 16777619u;
  }
}

void HashMixDouble(uint32_t* h, double value) {
  // Hash the canonical bit pattern, not the raw one: -0.0 == 0.0, so two
  // numerically identical calibrations must not produce different cache
  // generations. NaN has no meaningful value identity (and many payloads) —
  // a NaN calibration parameter is a corrupted spec, reject it.
  TL_CHECK_MSG(!std::isnan(value), "NaN calibration parameter");
  if (value == 0.0) value = 0.0;  // collapses -0.0
  HashMix(h, std::bit_cast<uint64_t>(value));
}

}  // namespace

uint32_t CostCalibrationHash(const sim::MachineSpec& spec) {
  // Fingerprint the cost model by what it *outputs* at fixed probe points,
  // not by which constants it happens to contain: any recalibration — a
  // MachineSpec number or a formula coefficient — changes some probe and
  // therefore the hash, so stale cached costs stop matching their keys.
  const sim::CostModel cost(spec);
  uint32_t h = 2166136261u;
  HashMix(&h, static_cast<uint64_t>(cost.GemmTileStep(128, 256, 64)));
  HashMix(&h, static_cast<uint64_t>(cost.GemmTileStep(32, 32, 64)));
  HashMix(&h, static_cast<uint64_t>(cost.FlashAttnTileStep(128, 128, 128)));
  HashMix(&h, static_cast<uint64_t>(cost.MemoryBound(1 << 20, 20)));
  HashMix(&h, static_cast<uint64_t>(cost.NvlinkTransfer(1 << 20)));
  HashMix(&h, static_cast<uint64_t>(cost.BlockPrologue()));
  HashMix(&h, static_cast<uint64_t>(cost.BlockEpilogue()));
  // Fabric parameters and software latencies the DES bills directly (not
  // via CostModel); bandwidths hash their full bit patterns so fractional
  // recalibrations change the key too.
  HashMix(&h, static_cast<uint64_t>(spec.nic_latency));
  HashMixDouble(&h, spec.nic_gbps);
  HashMix(&h, static_cast<uint64_t>(spec.nic_queue_pairs));
  HashMixDouble(&h, spec.nvlink_gbps);
  HashMix(&h, static_cast<uint64_t>(spec.copy_engines_per_device));
  HashMix(&h, static_cast<uint64_t>(spec.kernel_launch_latency));
  HashMix(&h, static_cast<uint64_t>(spec.host_sync_latency));
  HashMix(&h, static_cast<uint64_t>(spec.collective_setup_latency));
  HashMix(&h, static_cast<uint64_t>(spec.dma_setup_latency));
  HashMixDouble(&h, spec.dma_efficiency);
  HashMix(&h, static_cast<uint64_t>(spec.signal_visibility_latency));
  HashMix(&h, static_cast<uint64_t>(spec.local_signal_latency));
  return h;
}

namespace {

// Minimal recursive-descent parser for the flat JSON this cache writes:
// { "key": { "field": value-or-string, ... }, ... }. Not a general JSON
// parser — but strict enough to reject anything it did not produce.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      // Keys/values never contain escapes; reject rather than mis-parse.
      if (text_[pos_] == '\\') return false;
      out->push_back(text_[pos_++]);
    }
    return Consume('"');
  }

  bool ParseInt(int64_t* out) {
    SkipWs();
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    bool any = false;
    int64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const int digit = text_[pos_] - '0';
      // Reject overflow instead of wrapping: a corrupted cache file must
      // fail the parse, not produce a garbage config.
      if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
        return false;
      }
      value = value * 10 + digit;
      any = true;
      ++pos_;
    }
    if (!any) return false;  // also rejects a bare "-"
    *out = negative ? -value : value;
    return true;
  }

  // True when only whitespace remains: FromJson must consume the whole
  // document, a cache file with trailing garbage is corrupted.
  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

bool ParseEntryObject(JsonScanner& scan, TunedEntry* entry) {
  if (!scan.Consume('{')) return false;
  bool first = true;
  while (!scan.Peek('}')) {
    if (!first && !scan.Consume(',')) return false;
    first = false;
    std::string field;
    if (!scan.ParseString(&field) || !scan.Consume(':')) return false;
    TuneCandidate& c = entry->config;
    if (field == "comm" || field == "order") {
      std::string name;
      if (!scan.ParseString(&name)) return false;
      if (field == "comm" && !ParseCommResource(name, &c.comm)) return false;
      if (field == "order" && !ParseTileOrder(name, &c.order)) return false;
      continue;
    }
    int64_t value = 0;
    if (!scan.ParseInt(&value)) return false;
    // Every config field is an int; out-of-range means a corrupted file.
    // (The two cost fields are int64 nanoseconds.)
    if (field != "cost_ns" && field != "seed_cost_ns" &&
        (value > std::numeric_limits<int>::max() ||
         value < std::numeric_limits<int>::min())) {
      return false;
    }
    const int v = static_cast<int>(value);
    if (field == "bm") {
      c.gemm.bm = v;
    } else if (field == "bn") {
      c.gemm.bn = v;
    } else if (field == "bk") {
      c.gemm.bk = v;
    } else if (field == "comm_tile_m") {
      c.comm_tile_m = v;
    } else if (field == "comm_sms") {
      c.comm_sms = v;
    } else if (field == "channels_per_rank") {
      c.channels_per_rank = v;
    } else if (field == "block_q") {
      c.block_q = v;
    } else if (field == "block_kv") {
      c.block_kv = v;
    } else if (field == "sorted_channel_rows") {
      c.sorted_channel_rows = v;
    } else if (field == "reduce_block_tokens") {
      c.reduce_block_tokens = v;
    } else if (field == "reduce_sms") {
      c.reduce_sms = v;
    } else if (field == "nic_chunk_tiles") {
      c.nic_chunk_tiles = v;
    } else if (field == "staging_depth") {
      c.staging_depth = v;
    } else if (field == "cost_ns") {
      entry->cost = value;
    } else if (field == "seed_cost_ns") {
      entry->seed_cost = value;
    } else if (field == "full_evals") {
      entry->full_evals = v;
    } else {
      return false;  // unknown field: not ours
    }
  }
  return scan.Consume('}');
}

}  // namespace

std::string TunedConfigCache::Key(const std::string& kind,
                                  const std::vector<int64_t>& dims,
                                  const sim::MachineSpec& spec) {
  std::ostringstream os;
  os << kind << "/";
  bool first = true;
  for (int64_t d : dims) {
    os << (first ? "" : "x") << d;
    first = false;
  }
  // Node topology is part of the machine: a 2x8 and a 4x4 sixteen-device
  // machine tune multi-node collectives completely differently.
  os << "/R" << spec.num_devices << ".n" << spec.devices_per_node << ".sm"
     << spec.sms_per_device << ".nv"
     << static_cast<int64_t>(spec.nvlink_gbps);
  // Calibration hash: recalibrating the cost model changes the key, so a
  // warm-started cache silently re-tunes instead of serving stale costs.
  char cal[16];
  std::snprintf(cal, sizeof(cal), ".c%08x", CostCalibrationHash(spec));
  os << cal;
  return os.str();
}

std::size_t TunedConfigCache::PruneStaleCalibration(
    uint32_t calibration_hash) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".c%08x", calibration_hash);
  const std::string want(suffix);
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::string& key = it->first;
    if (key.size() < want.size() ||
        key.compare(key.size() - want.size(), want.size(), want) != 0) {
      recency_.erase(key);
      measured_.erase(key);
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

const TunedEntry* TunedConfigCache::Find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void TunedConfigCache::TouchLocked(const std::string& key) {
  recency_[key] = ++tick_;
}

void TunedConfigCache::EvictOverflowLocked() {
  if (capacity_ == 0) return;
  while (entries_.size() > capacity_) {
    auto victim = recency_.end();
    for (auto it = recency_.begin(); it != recency_.end(); ++it) {
      if (victim == recency_.end() || it->second < victim->second) {
        victim = it;
      }
    }
    if (victim == recency_.end()) break;  // recency lost track: keep all
    entries_.erase(victim->first);
    measured_.erase(victim->first);
    recency_.erase(victim);
    ++stats_.evictions;
  }
}

void TunedConfigCache::StoreLocked(const std::string& key,
                                   const TunedEntry& entry, bool measured) {
  entries_[key] = entry;
  if (measured) {
    measured_.insert(key);
  } else {
    measured_.erase(key);
  }
  TouchLocked(key);
  ++stats_.stores;
  EvictOverflowLocked();
}

void TunedConfigCache::SetCapacity(std::size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = max_entries;
  EvictOverflowLocked();
}

std::vector<std::pair<std::string, TunedEntry>> TunedConfigCache::Entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

void TunedConfigCache::Put(const std::string& key, const TunedEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  StoreLocked(key, entry, /*measured=*/false);
}

TunedEntry TunedConfigCache::GetOrTune(const std::string& key,
                                       const std::function<TunedEntry()>& tune,
                                       bool* measured) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      TouchLocked(key);
      if (measured != nullptr) *measured = measured_.count(key) > 0;
      return it->second;
    }
  }
  // Search with the lock dropped: a concurrent tuner missing the same key
  // runs its own (deterministic, hence identical) search, and last-wins
  // below leaves the same entry either way. The wall clock around the
  // search feeds the warm-start accounting only — never the cache contents.
  const auto t0 = std::chrono::steady_clock::now();
  TunedEntry fresh = tune();
  const int64_t tune_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  stats_.warm_start_ns += tune_ns;
  stats_.max_tune_ns = std::max(stats_.max_tune_ns, tune_ns);
  StoreLocked(key, fresh, /*measured=*/true);
  if (measured != nullptr) *measured = true;
  return fresh;
}

std::string TunedConfigCache::ToJson() const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n";
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    const TuneCandidate& c = entry.config;
    os << (first ? "" : ",\n");
    first = false;
    os << "  \"" << key << "\": {\"bm\": " << c.gemm.bm
       << ", \"bn\": " << c.gemm.bn << ", \"bk\": " << c.gemm.bk
       << ", \"comm_tile_m\": " << c.comm_tile_m
       << ", \"comm_sms\": " << c.comm_sms << ", \"comm\": \""
       << CommResourceName(c.comm) << "\", \"order\": \""
       << TileOrderName(c.order)
       << "\", \"channels_per_rank\": " << c.channels_per_rank
       << ", \"block_q\": " << c.block_q << ", \"block_kv\": " << c.block_kv
       << ", \"sorted_channel_rows\": " << c.sorted_channel_rows
       << ", \"reduce_block_tokens\": " << c.reduce_block_tokens
       << ", \"reduce_sms\": " << c.reduce_sms
       << ", \"nic_chunk_tiles\": " << c.nic_chunk_tiles
       << ", \"staging_depth\": " << c.staging_depth
       << ", \"cost_ns\": " << entry.cost
       << ", \"seed_cost_ns\": " << entry.seed_cost
       << ", \"full_evals\": " << entry.full_evals << "}";
  }
  os << "\n}\n";
  return os.str();
}

bool TunedConfigCache::FromJson(const std::string& json) {
  // Parse into a scratch map and merge only on full success: a corrupted
  // file must not leave the cache half-loaded. Duplicate keys are
  // last-wins, both across entries and for repeated fields within one
  // entry (matching how entries_[key] assignment always behaved).
  JsonScanner scan(json);
  std::unordered_map<std::string, TunedEntry> parsed;
  if (!scan.Consume('{')) return false;
  bool first = true;
  while (!scan.Peek('}')) {
    if (!first && !scan.Consume(',')) return false;
    first = false;
    std::string key;
    if (!scan.ParseString(&key) || !scan.Consume(':')) return false;
    TunedEntry entry;
    if (!ParseEntryObject(scan, &entry)) return false;
    parsed[key] = entry;
  }
  if (!scan.Consume('}')) return false;
  if (!scan.AtEnd()) return false;  // trailing garbage: not our file
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : parsed) {
    measured_.erase(key);
    entries_[key] = std::move(entry);
  }
  // Loaded entries get recency ticks in key order (deterministic; recency
  // itself is never serialized), then any capacity overflow is evicted.
  for (const auto& [key, entry] : entries_) {
    if (recency_.find(key) == recency_.end()) TouchLocked(key);
  }
  EvictOverflowLocked();
  return true;
}

bool TunedConfigCache::SaveFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJson();
  return static_cast<bool>(out);
}

bool TunedConfigCache::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromJson(buf.str());
}

}  // namespace tilelink::tl
