// Sharded schedule cache keyed on quantized cost-matrix signatures.
//
// The insight behind serving schedules at high QPS: topology signatures
// change far slower than request rates (Estefanel & Mounié's logical-
// cluster observation, PAPERS.md). A schedule is a pure function of the
// cost matrix and the algorithm, and cost matrices drawn seconds apart
// from a drifting directory differ by measurement-jitter-sized factors —
// so schedules are highly cacheable if the key absorbs that jitter.
//
// The key reuses cluster detection's quantization
// (netmodel/cluster_detect.hpp): every cost-matrix entry is reduced to
// its quantized log-level at `quantum` resolution. Two requests whose
// per-pair costs all agree within roughly a factor exp(quantum/2) share a
// key and hence a cached schedule; the moment directory drift pushes any
// pair past the quantization tolerance the signature changes and the
// stale entry simply stops being reachable — drift invalidation without a
// watcher thread. Evicted (or never re-requested) entries age out of
// their shard by LRU.
//
// Concurrency: keys hash onto independently locked shards, so unrelated
// requests never contend. Identical concurrent requests coalesce
// (single-flight): the first becomes the leader and solves; followers
// block on the leader's flight and share its result — under a request
// burst for one hot key the solver runs once, not N times.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "util/matrix.hpp"

namespace hcs::service {

/// Deterministic 64-bit content hash (no pointer or per-process salt):
/// four interleaved FNV-style lanes over 8-byte chunks, so hashing a
/// P = 64 signature costs microseconds, not tens of them. Stable across
/// runs — shard placement and request-memo probes are reproducible.
[[nodiscard]] std::uint64_t hash_bytes64(
    std::span<const std::uint8_t> bytes) noexcept;

/// Cache key: algorithm + processor count + the quantized log-level of
/// every cost-matrix entry. Equal keys mean "same algorithm, costs within
/// quantization tolerance pair-wise".
struct ScheduleKey {
  std::uint8_t kind = 0;
  std::uint8_t hierarchical = 0;
  std::uint32_t processors = 0;
  /// hash_bytes64 over the fields above + levels, computed once at build
  /// time (make_schedule_key). Declared before levels so the defaulted
  /// operator== rejects unequal keys on the digest without touching the
  /// P^2-sized vector.
  std::uint64_t digest = 0;
  std::vector<std::int32_t> levels;  ///< row-major, diagonal included

  [[nodiscard]] bool operator==(const ScheduleKey&) const = default;
};

/// Builds the key for one request: quantizes cost(i, j) for every ordered
/// pair at `quantum` log-resolution (diagonal entries are zero and map to
/// the clamp level — constant, so they never split keys).
[[nodiscard]] ScheduleKey make_schedule_key(SchedulerKind kind,
                                            bool hierarchical,
                                            const Matrix<double>& cost,
                                            double quantum);

/// Returns the key's precomputed digest — hashing is paid once when the
/// key is built, not on every shard pick and map probe.
struct ScheduleKeyHash {
  [[nodiscard]] std::size_t operator()(const ScheduleKey& key) const noexcept {
    return static_cast<std::size_t>(key.digest);
  }
};

/// Sharded LRU cache of solved schedules with single-flight coalescing.
/// All public methods are thread-safe.
class ScheduleCache {
 public:
  struct Options {
    std::size_t shards = 8;     ///< clamped to at least 1
    std::size_t capacity = 256; ///< total entries across shards (>= shards)
  };

  /// Monotonic counters; `entries` is the current resident count.
  struct Stats {
    std::uint64_t hits = 0;       ///< served from the cache, no wait
    std::uint64_t misses = 0;     ///< caller became the solving leader
    std::uint64_t coalesced = 0;  ///< waited on another request's solve
    std::uint64_t evictions = 0;  ///< LRU entries displaced by inserts
    std::uint64_t invalidations = 0;  ///< entries dropped by invalidate_all
    std::uint64_t entries = 0;
  };

  /// One in-flight solve; leaders carry it from acquire() to publish() /
  /// abort(), followers block on it.
  class Flight;

  /// Pre-serialized payload stored next to every schedule. Opaque to the
  /// cache; the server stashes the canonical wire encoding here so hits
  /// skip re-serializing the event list.
  using EncodedPayload = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Outcome of acquire(). Exactly one of three shapes:
  ///  - hit:     schedule set, hit == true — serve immediately;
  ///  - leader:  leader == true, flight set — solve, then publish/abort;
  ///  - coalesced: schedule set (or error non-empty), coalesced == true.
  struct Lookup {
    std::shared_ptr<const Schedule> schedule;
    EncodedPayload encoded;  ///< what publish() stored with the schedule
    std::shared_ptr<Flight> flight;
    std::string error;  ///< set when a coalesced leader aborted
    bool hit = false;
    bool leader = false;
    bool coalesced = false;
  };

  explicit ScheduleCache(Options options);
  ~ScheduleCache();

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Looks the key up; see Lookup. Blocks only in the coalesced case,
  /// and only until the leader publishes or aborts.
  [[nodiscard]] Lookup acquire(const ScheduleKey& key);

  /// Leader path: inserts the solved schedule with its encoding (evicting
  /// LRU past capacity), wakes followers. `flight` must come from this
  /// key's acquire(). Throws InputError, changing nothing, when either
  /// pointer is null: every entry and every coalesced follower gets both,
  /// so readers never check. The leader then abort()s the flight.
  void publish(const ScheduleKey& key, const std::shared_ptr<Flight>& flight,
               std::shared_ptr<const Schedule> schedule,
               EncodedPayload encoded);

  /// Leader path on failure: wakes followers with `error`; nothing is
  /// cached, so the next request retries the solve.
  void abort(const ScheduleKey& key, const std::shared_ptr<Flight>& flight,
             std::string error);

  /// Drops every resident entry (explicit epoch invalidation — e.g. the
  /// operator swapped the fabric description). In-flight solves are
  /// unaffected; they publish into the new epoch.
  void invalidate_all();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct Shard;

  [[nodiscard]] Shard& shard_for(const ScheduleKey& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 1;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace hcs::service
