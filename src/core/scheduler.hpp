// Scheduler interface and factory.
//
// A Scheduler maps a communication matrix to a valid timed schedule. The
// five algorithms the paper evaluates (§4–5) are available through
// `make_scheduler`; `paper_schedulers()` returns them in the order the
// figures plot them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/schedule.hpp"

namespace hcs {

/// Abstract total-exchange scheduling algorithm.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Short stable identifier, e.g. "baseline", "openshop".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Produces a timed schedule for `comm`. Every implementation's output
  /// satisfies Schedule::validate against `comm`.
  [[nodiscard]] virtual Schedule schedule(const CommMatrix& comm) const = 0;
};

/// Mixin for schedulers that can plan from non-zero port availabilities.
///
/// Mid-exchange rescheduling (adaptive/checkpoint.hpp) starts from a
/// state where ports free at different times; a plan computed for an idle
/// system can order events badly against that skew. Schedulers
/// implementing this interface take the availability vector into account;
/// the adaptive executor detects the capability via dynamic_cast.
class AvailabilityAwareScheduler {
 public:
  virtual ~AvailabilityAwareScheduler() = default;

  /// Like Scheduler::schedule, but sender/receiver ports only become
  /// usable at the given times (seconds, relative to the plan's zero).
  /// Event start times in the result respect those offsets.
  [[nodiscard]] virtual Schedule schedule_with_availability(
      const CommMatrix& comm, const std::vector<double>& send_avail,
      const std::vector<double>& recv_avail) const = 0;
};

/// What a degraded-mode schedule changed relative to the healthy plan.
/// Populated by FaultAwareScheduler::schedule_degraded so the executor can
/// surface re-elections and topology changes in traces and metrics.
struct DegradeInfo {
  /// Cluster representatives replaced because the original was down:
  /// (old_representative, new_representative) pairs.
  std::vector<std::pair<std::size_t, std::size_t>> reelected;
  /// Clusters split into connected components because intra-cluster
  /// connectivity was cut (count of extra clusters created).
  std::size_t clusters_split = 0;
  /// The scheduler abandoned its hierarchy and planned flat (fewer than
  /// two usable clusters remained).
  bool flat_fallback = false;
};

/// Mixin for schedulers that can plan around known-bad nodes and pairs.
///
/// Online re-planning (fault/resilient.hpp) re-schedules the undelivered
/// remainder of an exchange once faults strike. A fault-oblivious
/// scheduler sees the degraded directory and routes around slow pairs by
/// price alone; schedulers implementing this interface are additionally
/// told which nodes are down and which pairs are unusable, so they can
/// restructure (re-elect cluster representatives, split clusters, fall
/// back to flat) instead of merely re-pricing. Detected via dynamic_cast,
/// like AvailabilityAwareScheduler.
class FaultAwareScheduler {
 public:
  virtual ~FaultAwareScheduler() = default;

  /// Like Scheduler::schedule, but `node_down[p]` marks processors that
  /// are currently unreachable and `pair_blocked[src * P + dst]` marks
  /// directed pairs whose link is cut. Traffic touching down nodes or
  /// blocked pairs must still appear in the schedule (the executor gives
  /// it a chance to fail fast and relay); it is placed last. `info`, when
  /// non-null, receives what the degradation changed.
  [[nodiscard]] virtual Schedule schedule_degraded(
      const CommMatrix& comm, const std::vector<char>& node_down,
      const std::vector<char>& pair_blocked, DegradeInfo* info) const = 0;
};

/// The scheduling algorithms implemented by this library.
enum class SchedulerKind {
  kBaseline,         ///< caterpillar, §4.2 — the homogeneous-system standard
  kBaselineBarrier,  ///< caterpillar with step synchronization: how stepped
                     ///< all-to-all exchanges behave in homogeneous-system
                     ///< libraries, where each step completes before the
                     ///< next begins; reproduces the magnitude of the
                     ///< paper's reported baseline gap
  kMaxMatching,      ///< series of maximum weight matchings, §4.3
  kMinMatching,      ///< series of minimum weight matchings, §4.3
  kGreedy,           ///< rank-ordered greedy with fairness, §4.4
  kOpenShop,         ///< open-shop list scheduler, §4.5 (2-approximation)
  kRandom,           ///< random caterpillar relabeling — adaptivity-blind control
};

/// Instantiates a scheduler. `seed` is used only by kRandom.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                                        std::uint64_t seed = 0);

struct Clustering;

/// The hierarchical-or-flat factory: `kind` running inside a
/// HierarchicalScheduler over `clustering` when it is non-null (the
/// scheduler copies it, so one detection can serve several schedulers),
/// the flat make_scheduler(kind, seed) otherwise.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerKind kind, std::uint64_t seed, const Clustering* clustering);

/// Stable identifier of a scheduler kind (matches Scheduler::name()).
[[nodiscard]] std::string_view scheduler_name(SchedulerKind kind);

/// The five algorithms the paper's figures compare, in plot order:
/// baseline, max matching, min matching, greedy, open shop.
[[nodiscard]] const std::vector<SchedulerKind>& paper_schedulers();

}  // namespace hcs
