#include "core/hierarchical_scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/matrix.hpp"

namespace hcs {
namespace {

/// The comm-medoid of `members`: the member with the least total exchange
/// time with its fellows, ties to the lowest id.
std::size_t comm_medoid(const CommMatrix& comm,
                        const std::vector<std::size_t>& members) {
  std::size_t best = members.front();
  double best_total = std::numeric_limits<double>::infinity();
  for (const std::size_t i : members) {
    double total = 0.0;
    for (const std::size_t j : members)
      if (i != j) total += comm.time(i, j) + comm.time(j, i);
    if (total < best_total) {
      best_total = total;
      best = i;
    }
  }
  return best;
}

/// Phases 1–3 of the hierarchical algorithm over an explicit cluster
/// member partition and representative set: intra-cluster inner schedules,
/// the weighted quotient exchange over the representatives, and the
/// K_{m,p} edge-coloring block expansion. Returns the priority order the
/// splice pass consumes.
std::vector<std::pair<std::size_t, std::size_t>> hierarchical_order(
    const CommMatrix& comm,
    const std::vector<std::vector<std::size_t>>& clusters,
    const std::vector<std::size_t>& reps, const Scheduler& inner) {
  const std::size_t k = clusters.size();
  std::vector<std::pair<std::size_t, std::size_t>> order;

  // Phase 1: intra-cluster exchanges. Clusters have disjoint ports, so
  // their event streams interleave freely in the list pass; one inner
  // scheduler instance is reused so its warm workspace carries across
  // clusters.
  for (const std::vector<std::size_t>& members : clusters) {
    const std::size_t m = members.size();
    if (m < 2) continue;
    Matrix<double> sub(m, m, 0.0);
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = 0; b < m; ++b)
        if (a != b) sub(a, b) = comm.time(members[a], members[b]);
    const Schedule inner_schedule = inner.schedule(CommMatrix{std::move(sub)});
    for (const auto& [src, dst] : detail::event_order(inner_schedule))
      order.emplace_back(members[src], members[dst]);
  }

  // Phase 2: schedule the K-cluster quotient exchange over the
  // representatives' link structure. Each quotient entry is scaled by its
  // block's larger side: an estimate of the serialized time the
  // bottleneck port spends on the block, so the inner algorithm
  // prioritizes heavy cluster pairs.
  if (k < 2) return order;
  Matrix<double> quotient(k, k, 0.0);
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < k; ++b)
      if (a != b)
        quotient(a, b) =
            comm.time(reps[a], reps[b]) *
            static_cast<double>(std::max(clusters[a].size(),
                                         clusters[b].size()));

  // Phase 3: expand each quotient event A -> B into its point-to-point
  // block, round-ordered by the proper edge coloring of K_{m,p} with
  // color(ia, jb) = (ia + jb) mod max(m, p) — within a round every sender
  // and receiver appears at most once, so rounds pack side by side
  // instead of piling onto one port.
  for (const auto& [a, b] :
       detail::event_order(inner.schedule(CommMatrix{std::move(quotient)}))) {
    const std::vector<std::size_t>& from = clusters[a];
    const std::vector<std::size_t>& to = clusters[b];
    const std::size_t rounds = std::max(from.size(), to.size());
    for (std::size_t color = 0; color < rounds; ++color) {
      for (std::size_t ia = 0; ia < from.size(); ++ia) {
        const std::size_t jb = (color + rounds - ia) % rounds;
        if (jb < to.size()) order.emplace_back(from[ia], to[jb]);
      }
    }
  }
  return order;
}

/// Greedy per-port list pass over the priority order. Each event starts
/// the instant both its ports are free, which serializes every port by
/// construction — the validity guarantee is independent of how the order
/// was produced.
Schedule splice(const CommMatrix& comm, std::size_t n,
                const std::vector<std::pair<std::size_t, std::size_t>>& order) {
  std::vector<double> send_avail(n, 0.0);
  std::vector<double> recv_avail(n, 0.0);
  std::vector<ScheduledEvent> events;
  events.reserve(order.size());
  for (const auto& [src, dst] : order) {
    const double start = std::max(send_avail[src], recv_avail[dst]);
    const double finish = start + comm.time(src, dst);
    events.push_back({src, dst, start, finish});
    send_avail[src] = finish;
    recv_avail[dst] = finish;
  }
  return Schedule{n, std::move(events)};
}

}  // namespace

// Sorts 16-byte (start, src:dst) keys rather than copying and sorting whole
// events (an index fits 32 bits: no n x n cost matrix has n >= 2^32).
// Equal keys name the same pair, so the order is fully determined.
std::vector<std::pair<std::size_t, std::size_t>> detail::event_order(
    const Schedule& schedule) {
  struct Key {
    double start;
    std::uint64_t pair;  ///< src << 32 | dst: orders by src, then dst
  };
  const std::vector<ScheduledEvent>& events = schedule.events();
  std::vector<Key> keys;
  keys.reserve(events.size());
  for (const ScheduledEvent& e : events)
    keys.push_back({e.start_s, std::uint64_t{e.src} << 32 | e.dst});
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.pair < b.pair;
  });
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(keys.size());
  for (const Key& key : keys)
    order.emplace_back(key.pair >> 32, key.pair & 0xFFFFFFFFu);
  return order;
}

HierarchicalScheduler::HierarchicalScheduler(Clustering clustering,
                                             Options options)
    : clustering_(std::move(clustering)), options_(options) {
  name_ = "hierarchical(" +
          std::string(scheduler_name(options_.inner)) + ")";
}

Schedule HierarchicalScheduler::schedule(const CommMatrix& comm) const {
  const std::size_t n = comm.processor_count();
  if (clustering_.node_count() != n)
    throw InputError(
        "HierarchicalScheduler: clustering does not cover this matrix");
  const std::unique_ptr<Scheduler> inner =
      make_scheduler(options_.inner, options_.seed);
  if (clustering_.flat()) return inner->schedule(comm);

  std::vector<std::size_t> reps;
  reps.reserve(clustering_.members.size());
  for (const std::vector<std::size_t>& members : clustering_.members)
    reps.push_back(comm_medoid(comm, members));

  return splice(comm, n,
                hierarchical_order(comm, clustering_.members, reps, *inner));
}

Schedule HierarchicalScheduler::schedule_degraded(
    const CommMatrix& comm, const std::vector<char>& node_down,
    const std::vector<char>& pair_blocked, DegradeInfo* info) const {
  const std::size_t n = comm.processor_count();
  if (clustering_.node_count() != n)
    throw InputError(
        "HierarchicalScheduler: clustering does not cover this matrix");
  if (node_down.size() != n || pair_blocked.size() != n * n)
    throw InputError(
        "HierarchicalScheduler: degraded views do not cover this matrix");
  const std::unique_ptr<Scheduler> inner =
      make_scheduler(options_.inner, options_.seed);

  const auto usable = [&](std::size_t i, std::size_t j) {
    return !pair_blocked[i * n + j] && !pair_blocked[j * n + i];
  };

  // Drop down nodes from their clusters and split what remains of each
  // cluster into connected components over the usable undirected pairs —
  // members that can no longer reach each other must not share a quotient
  // representative.
  std::vector<std::vector<std::size_t>> clusters;
  std::size_t split_extra = 0;
  std::vector<std::pair<std::size_t, std::size_t>> reelected;
  std::vector<std::size_t> reps;
  for (const std::vector<std::size_t>& members : clustering_.members) {
    std::vector<std::size_t> alive;
    for (const std::size_t i : members)
      if (!node_down[i]) alive.push_back(i);
    if (alive.empty()) continue;
    const std::size_t old_rep = comm_medoid(comm, members);

    std::vector<char> seen(alive.size(), 0);
    std::size_t components = 0;
    for (std::size_t s = 0; s < alive.size(); ++s) {
      if (seen[s]) continue;
      std::vector<std::size_t> component;
      std::vector<std::size_t> stack{s};
      seen[s] = 1;
      while (!stack.empty()) {
        const std::size_t a = stack.back();
        stack.pop_back();
        component.push_back(alive[a]);
        for (std::size_t b = 0; b < alive.size(); ++b)
          if (!seen[b] && usable(alive[a], alive[b])) {
            seen[b] = 1;
            stack.push_back(b);
          }
      }
      std::sort(component.begin(), component.end());
      ++components;

      // The original representative keeps its seat in whichever component
      // it survived into; every other component (and every component when
      // the representative itself is down) re-elects its comm-medoid.
      const bool keeps_seat =
          !node_down[old_rep] &&
          std::find(component.begin(), component.end(), old_rep) !=
              component.end();
      if (keeps_seat) {
        reps.push_back(old_rep);
      } else {
        const std::size_t new_rep = comm_medoid(comm, component);
        reps.push_back(new_rep);
        reelected.emplace_back(old_rep, new_rep);
      }
      clusters.push_back(std::move(component));
    }
    split_extra += components - 1;
  }

  const bool flat_fallback = clusters.size() < 2 || clustering_.flat();
  if (info != nullptr) {
    info->reelected = reelected;
    info->clusters_split = split_extra;
    info->flat_fallback = flat_fallback;
  }

  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(n * (n - 1));
  if (flat_fallback) {
    // Fewer than two usable clusters: the hierarchy has collapsed, so plan
    // the surviving nodes flat with the inner algorithm.
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < n; ++i)
      if (!node_down[i]) alive.push_back(i);
    const std::size_t m = alive.size();
    if (m >= 2) {
      Matrix<double> sub(m, m, 0.0);
      for (std::size_t a = 0; a < m; ++a)
        for (std::size_t b = 0; b < m; ++b)
          if (a != b) sub(a, b) = comm.time(alive[a], alive[b]);
      const Schedule inner_schedule =
          inner->schedule(CommMatrix{std::move(sub)});
      for (const auto& [src, dst] : detail::event_order(inner_schedule))
        order.emplace_back(alive[src], alive[dst]);
    }
  } else {
    order = hierarchical_order(comm, clusters, reps, *inner);
  }

  // Traffic touching down nodes still belongs in the schedule — the
  // executor fails it fast and relays or gives up — but only after every
  // live transfer has had its slot.
  for (std::size_t src = 0; src < n; ++src)
    for (std::size_t dst = 0; dst < n; ++dst)
      if (src != dst && (node_down[src] || node_down[dst]))
        order.emplace_back(src, dst);

  return splice(comm, n, order);
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          std::uint64_t seed,
                                          const Clustering* clustering) {
  if (clustering == nullptr) return make_scheduler(kind, seed);
  HierarchicalScheduler::Options options;
  options.inner = kind;
  options.seed = seed;
  return std::make_unique<HierarchicalScheduler>(*clustering, options);
}

}  // namespace hcs
