// Hierarchical cluster-aware total-exchange scheduling.
//
// Every flat scheduler in this library prices and orders all P² events
// against the full directory — O(P³)–O(P⁴) work that tops out in the low
// hundreds of processors. But wide-area systems are not flat: detection
// (netmodel/cluster_detect) recovers logical homogeneous clusters, and
// this scheduler exploits them, turning one giant instance into many
// small ones:
//
//   1. intra-cluster — run the configured inner scheduler on each
//      cluster's sub-matrix independently (clusters' ports are disjoint,
//      so their phases overlap freely);
//   2. quotient — elect a representative per cluster (the comm-medoid)
//      and schedule the K×K inter-cluster exchange over the
//      representatives' link structure, with each quotient event weighted
//      by its block's size — a block-duration estimate;
//   3. splice — expand each quotient event (A → B) into its |A|·|B|
//      point-to-point messages, round-ordered by a proper edge coloring
//      of K_{|A|,|B|} so no port is asked for two messages in one round,
//      then re-time everything with a greedy per-port list pass.
//
// The list pass serializes each send and receive port by construction,
// so the spliced result is a valid Schedule (auditor-clean) regardless of
// the inner algorithm; the inner and quotient schedules contribute
// ordering, not absolute times. With a degenerate single-cluster
// detection the scheduler IS the inner scheduler — the flat path,
// untouched.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"

namespace hcs {

namespace detail {
/// The order the splice pass consumes from an inner schedule: its events
/// as (src, dst) pairs in start order, ties by src, then dst. Only the
/// order survives splicing — the final times come from the list pass.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> event_order(
    const Schedule& schedule);
}  // namespace detail

class HierarchicalScheduler final : public Scheduler,
                                    public FaultAwareScheduler {
 public:
  struct Options {
    /// Algorithm used both intra-cluster and for the quotient exchange.
    SchedulerKind inner = SchedulerKind::kGreedy;
    /// Seed forwarded to the inner scheduler (only kRandom consumes it).
    std::uint64_t seed = 0;
  };

  /// `clustering` must partition exactly the processors of every comm
  /// matrix later passed to schedule().
  HierarchicalScheduler(Clustering clustering, Options options);
  explicit HierarchicalScheduler(Clustering clustering)
      : HierarchicalScheduler(std::move(clustering), Options{}) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Schedule schedule(const CommMatrix& comm) const override;

  /// Degraded-mode planning (FaultAwareScheduler). Down nodes are dropped
  /// from their clusters; clusters whose intra-cluster connectivity is cut
  /// split into connected components over the usable undirected pairs;
  /// crashed representatives trigger comm-medoid re-election among each
  /// surviving component. With fewer than two usable clusters left the
  /// scheduler plans flat. Traffic touching down nodes is appended last,
  /// so the executor fails it fast and relays without stalling the live
  /// part of the exchange. The splice pass is unchanged, so the result is
  /// valid by construction.
  [[nodiscard]] Schedule schedule_degraded(
      const CommMatrix& comm, const std::vector<char>& node_down,
      const std::vector<char>& pair_blocked,
      DegradeInfo* info) const override;

  [[nodiscard]] const Clustering& clustering() const noexcept {
    return clustering_;
  }

 private:
  Clustering clustering_;
  Options options_;
  std::string name_;
};

}  // namespace hcs
