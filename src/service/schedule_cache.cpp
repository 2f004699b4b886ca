#include "service/schedule_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "netmodel/cluster_detect.hpp"
#include "util/error.hpp"

namespace hcs::service {

std::uint64_t hash_bytes64(std::span<const std::uint8_t> bytes) noexcept {
  // Four independent FNV-1a-style lanes over 8-byte chunks: one
  // multiply per lane per 32 bytes with no cross-lane dependency, so the
  // chain is 4x shorter than byte-wise FNV while staying deterministic.
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t lane[4] = {0xCBF29CE484222325ULL, 0x9E3779B97F4A7C15ULL,
                           0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL};
  std::size_t pos = 0;
  while (bytes.size() - pos >= 32) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t chunk;
      std::memcpy(&chunk, bytes.data() + pos + 8 * k, 8);
      lane[k] = (lane[k] ^ chunk) * kPrime;
    }
    pos += 32;
  }
  while (bytes.size() - pos >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, bytes.data() + pos, 8);
    lane[0] = (lane[0] ^ chunk) * kPrime;
    pos += 8;
  }
  for (; pos < bytes.size(); ++pos)
    lane[1] = (lane[1] ^ bytes[pos]) * kPrime;
  std::uint64_t h = bytes.size();
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  h ^= h >> 32;
  h *= kPrime;
  h ^= h >> 29;
  return h;
}

ScheduleKey make_schedule_key(SchedulerKind kind, bool hierarchical,
                              const Matrix<double>& cost, double quantum) {
  if (!(quantum > 0.0))
    throw InputError("make_schedule_key: quantum must be positive");
  if (!cost.square()) throw InputError("make_schedule_key: cost must be square");
  ScheduleKey key;
  key.kind = static_cast<std::uint8_t>(kind);
  key.hierarchical = hierarchical ? 1 : 0;
  key.processors = static_cast<std::uint32_t>(cost.rows());
  key.levels.resize(cost.data().size());
  quantize_log_levels(cost.data(), quantum, key.levels);
  // Digest covers every identity-bearing field; computed once here so
  // equal keys always carry equal digests.
  std::uint8_t header[8] = {};
  header[0] = key.kind;
  header[1] = key.hierarchical;
  std::memcpy(header + 4, &key.processors, 4);
  std::uint64_t h = hash_bytes64(header);
  h ^= hash_bytes64(
      {reinterpret_cast<const std::uint8_t*>(key.levels.data()),
       4 * key.levels.size()});
  key.digest = h * 0x100000001B3ULL;
  return key;
}

/// One in-flight solve. Followers wait on `cv`; the leader sets either
/// `result` or `error` under `mutex` and notifies.
class ScheduleCache::Flight {
 public:
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<const Schedule> result;
  EncodedPayload encoded;
  std::string error;
};

struct ScheduleCache::Shard {
  struct Entry {
    std::shared_ptr<const Schedule> schedule;
    EncodedPayload encoded;
    std::uint64_t tick = 0;  ///< shard-local LRU clock at last touch
  };

  std::mutex mutex;
  std::uint64_t tick = 0;
  std::unordered_map<ScheduleKey, Entry, ScheduleKeyHash> entries;
  std::unordered_map<ScheduleKey, std::shared_ptr<Flight>, ScheduleKeyHash>
      in_flight;
};

ScheduleCache::ScheduleCache(Options options) {
  const std::size_t shard_count = std::max<std::size_t>(options.shards, 1);
  const std::size_t capacity =
      std::max<std::size_t>(options.capacity, shard_count);
  per_shard_capacity_ = capacity / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

ScheduleCache::~ScheduleCache() = default;

ScheduleCache::Shard& ScheduleCache::shard_for(const ScheduleKey& key) {
  return *shards_[ScheduleKeyHash{}(key) % shards_.size()];
}

ScheduleCache::Lookup ScheduleCache::acquire(const ScheduleKey& key) {
  Shard& shard = shard_for(key);
  std::shared_ptr<Flight> flight;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.entries.find(key); it != shard.entries.end()) {
      it->second.tick = ++shard.tick;
      hits_.fetch_add(1, std::memory_order_relaxed);
      Lookup lookup;
      lookup.schedule = it->second.schedule;
      lookup.encoded = it->second.encoded;
      lookup.hit = true;
      return lookup;
    }
    if (const auto it = shard.in_flight.find(key);
        it != shard.in_flight.end()) {
      flight = it->second;  // fall through to wait outside the shard lock
    } else {
      flight = std::make_shared<Flight>();
      shard.in_flight.emplace(key, flight);
      misses_.fetch_add(1, std::memory_order_relaxed);
      Lookup lookup;
      lookup.flight = std::move(flight);
      lookup.leader = true;
      return lookup;
    }
  }
  std::unique_lock<std::mutex> wait_lock(flight->mutex);
  flight->cv.wait(wait_lock, [&flight] { return flight->done; });
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  Lookup lookup;
  lookup.schedule = flight->result;
  lookup.encoded = flight->encoded;
  lookup.error = flight->error;
  lookup.coalesced = true;
  return lookup;
}

void ScheduleCache::publish(const ScheduleKey& key,
                            const std::shared_ptr<Flight>& flight,
                            std::shared_ptr<const Schedule> schedule,
                            EncodedPayload encoded) {
  if (!schedule || !encoded)
    throw InputError("ScheduleCache::publish: schedule and its encoding "
                     "must both be present");
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.in_flight.erase(key);
    auto& entry = shard.entries[key];
    entry.schedule = schedule;
    entry.encoded = encoded;
    entry.tick = ++shard.tick;
    while (shard.entries.size() > per_shard_capacity_) {
      // Linear LRU scan: shards are small (capacity / shard_count
      // entries) and eviction only runs on insert past capacity, so the
      // scan is cheaper than maintaining an intrusive list on every hit.
      auto victim = shard.entries.begin();
      for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it)
        if (it->second.tick < victim->second.tick) victim = it;
      shard.entries.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(flight->mutex);
    flight->result = std::move(schedule);
    flight->encoded = std::move(encoded);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void ScheduleCache::abort(const ScheduleKey& key,
                          const std::shared_ptr<Flight>& flight,
                          std::string error) {
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.in_flight.erase(key);
  }
  {
    const std::lock_guard<std::mutex> lock(flight->mutex);
    flight->error =
        error.empty() ? std::string("schedule solve aborted") : std::move(error);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void ScheduleCache::invalidate_all() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    invalidations_.fetch_add(shard->entries.size(),
                             std::memory_order_relaxed);
    shard->entries.clear();
  }
}

ScheduleCache::Stats ScheduleCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.entries += shard->entries.size();
  }
  return stats;
}

}  // namespace hcs::service
