// Property tests for the port-order pass (core PortOrder) and everything
// built on it: SendProgram::from_schedule, its keep-mask overload, and
// Schedule::first_violation. Each is checked against the sort-based
// construction it replaced, kept here as the reference: two global sorts
// of all event indices for from_schedule, one filtered sort per processor
// for the executors' remaining-pairs program, and per-port pointer sorts
// for the validity scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "sim/send_program.hpp"
#include "workload/scenario.hpp"

namespace hcs {
namespace {

using Orders = std::vector<std::vector<std::size_t>>;

// --- references: the sort-based constructions ---------------------------

/// from_schedule as it was: sort every event index by (port, start,
/// finish, index), once per side.
std::pair<Orders, Orders> reference_orders(const Schedule& schedule) {
  const std::size_t n = schedule.processor_count();
  const std::vector<ScheduledEvent>& events = schedule.events();
  std::vector<std::size_t> by_send(events.size());
  std::vector<std::size_t> by_recv(events.size());
  for (std::size_t e = 0; e < events.size(); ++e) by_send[e] = by_recv[e] = e;
  const auto time_order = [&events](bool by_sender) {
    return [&events, by_sender](std::size_t a, std::size_t b) {
      const ScheduledEvent& x = events[a];
      const ScheduledEvent& y = events[b];
      const std::size_t px = by_sender ? x.src : x.dst;
      const std::size_t py = by_sender ? y.src : y.dst;
      if (px != py) return px < py;
      if (x.start_s != y.start_s) return x.start_s < y.start_s;
      if (x.finish_s != y.finish_s) return x.finish_s < y.finish_s;
      return a < b;
    };
  };
  std::sort(by_send.begin(), by_send.end(), time_order(true));
  std::sort(by_recv.begin(), by_recv.end(), time_order(false));
  Orders orders(n);
  Orders recv_orders(n);
  for (const std::size_t e : by_send)
    orders[events[e].src].push_back(events[e].dst);
  for (const std::size_t e : by_recv)
    recv_orders[events[e].dst].push_back(events[e].src);
  return {std::move(orders), std::move(recv_orders)};
}

/// One processor's events on one side, sorted by (start, finish).
std::vector<ScheduledEvent> reference_port(const Schedule& schedule,
                                           bool by_sender,
                                           std::size_t processor) {
  std::vector<ScheduledEvent> result;
  for (const ScheduledEvent& event : schedule.events())
    if ((by_sender ? event.src : event.dst) == processor)
      result.push_back(event);
  std::sort(result.begin(), result.end(),
            [](const ScheduledEvent& a, const ScheduledEvent& b) {
              return a.start_s < b.start_s ||
                     (a.start_s == b.start_s && a.finish_s < b.finish_s);
            });
  return result;
}

/// The executors' remaining-pairs program as it was: one filtered sort
/// per processor and side.
std::pair<Orders, Orders> reference_remaining(
    const Schedule& schedule, const Matrix<unsigned char>& remaining) {
  const std::size_t n = schedule.processor_count();
  Orders orders(n);
  Orders recv_orders(n);
  for (std::size_t p = 0; p < n; ++p) {
    for (const ScheduledEvent& event : reference_port(schedule, true, p))
      if (remaining(event.src, event.dst) != 0) orders[p].push_back(event.dst);
    for (const ScheduledEvent& event : reference_port(schedule, false, p))
      if (remaining(event.src, event.dst) != 0)
        recv_orders[p].push_back(event.src);
  }
  return {std::move(orders), std::move(recv_orders)};
}

/// first_violation as it was, overlap scan over per-port sorted pointers.
std::optional<std::string> reference_violation(const Schedule& schedule,
                                               const CommMatrix& comm,
                                               double tolerance = 1e-9) {
  const std::size_t n = schedule.processor_count();
  if (comm.processor_count() != n)
    return "schedule and communication matrix sizes differ";
  Matrix<int> covered(n, n, 0);
  for (const ScheduledEvent& event : schedule.events()) {
    if (event.src == event.dst) return "self-message scheduled";
    if (event.start_s < -tolerance) return "event starts before time zero";
    if (covered(event.src, event.dst) != 0)
      return "duplicate event for a processor pair (message splitting?)";
    covered(event.src, event.dst) = 1;
    const double expected = comm.time(event.src, event.dst);
    if (std::abs(event.duration() - expected) >
        tolerance * std::max(1.0, expected))
      return "event duration does not match the communication matrix";
  }
  if (schedule.events().size() != n * (n - 1))
    return "schedule does not cover every processor pair exactly once";
  for (std::size_t p = 0; p < n; ++p)
    for (const bool by_sender : {true, false}) {
      const ScheduledEvent* previous = nullptr;
      std::vector<ScheduledEvent> port = reference_port(schedule, by_sender, p);
      for (const ScheduledEvent& event : port) {
        if (event.duration() <= tolerance) continue;
        if (previous != nullptr &&
            event.start_s < previous->finish_s - tolerance) {
          std::ostringstream message;
          message << "overlapping " << (by_sender ? "send" : "receive")
                  << " events at processor " << p << ": ["
                  << previous->start_s << ", " << previous->finish_s
                  << ") and [" << event.start_s << ", " << event.finish_s
                  << ")";
          return message.str();
        }
        previous = &event;
      }
    }
  return std::nullopt;
}

// --- helpers -------------------------------------------------------------

Orders program_orders(const SendProgram& program, bool senders) {
  Orders result(program.processor_count());
  for (std::size_t p = 0; p < result.size(); ++p)
    result[p] = senders ? program.order_of(p) : program.receiver_order_of(p);
  return result;
}

void expect_matches_reference(const Schedule& schedule,
                              const std::string& label) {
  const auto [orders, recv_orders] = reference_orders(schedule);
  const SendProgram program = SendProgram::from_schedule(schedule);
  ASSERT_TRUE(program.has_receiver_orders()) << label;
  EXPECT_EQ(program_orders(program, true), orders) << label;
  EXPECT_EQ(program_orders(program, false), recv_orders) << label;
}

/// Seeds 1..127 visit every P in {2..128} exactly once.
std::size_t size_for(std::uint64_t seed) { return 2 + (seed * 37) % 127; }

struct Instance {
  ProblemInstance problem;
  CommMatrix comm;
};

Instance instance_for(std::uint64_t seed, std::size_t p,
                      std::size_t clusters = 0) {
  ProblemInstance problem =
      make_instance(Scenario::kMixedMessages, p, seed, clusters);
  CommMatrix comm{problem.network, problem.messages};
  return {std::move(problem), std::move(comm)};
}

Schedule hierarchical_openshop(const Instance& instance) {
  HierarchicalScheduler::Options options;
  options.inner = SchedulerKind::kOpenShop;
  return HierarchicalScheduler{detect_clusters(instance.problem.network),
                               options}
      .schedule(instance.comm);
}

/// The same events in a seeded random order: the buckets come out of
/// the counting pass in index order that is no longer start order, so
/// the per-port sort runs.
Schedule shuffled(const Schedule& schedule, std::uint64_t seed) {
  std::vector<ScheduledEvent> events = schedule.events();
  std::mt19937_64 rng(seed);
  std::shuffle(events.begin(), events.end(), rng);
  return Schedule{schedule.processor_count(), std::move(events)};
}

// --- properties ----------------------------------------------------------

TEST(PortOrder, ProgramsMatchTheSortedReferenceForPaperSchedulers) {
  for (std::uint64_t seed = 1; seed <= 127; ++seed) {
    const std::size_t p = size_for(seed);
    const Instance instance = instance_for(seed, p);
    for (const SchedulerKind kind : paper_schedulers()) {
      const Schedule schedule = make_scheduler(kind)->schedule(instance.comm);
      const std::string label = std::string(scheduler_name(kind)) +
                                " P=" + std::to_string(p) +
                                " seed=" + std::to_string(seed);
      expect_matches_reference(schedule, label);
      expect_matches_reference(shuffled(schedule, seed), label + " shuffled");
    }
  }
}

TEST(PortOrder, ProgramsMatchTheSortedReferenceForHierarchicalOpenShop) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::size_t p = 8 + (seed * 37) % 121;  // 8..128, 4 sites
    const Schedule schedule =
        hierarchical_openshop(instance_for(seed, p, /*clusters=*/4));
    const std::string label =
        "P=" + std::to_string(p) + " seed=" + std::to_string(seed);
    expect_matches_reference(schedule, label);
    expect_matches_reference(shuffled(schedule, seed), label + " shuffled");
  }
}

TEST(PortOrder, PaperSchedulersEmitEveryPortInStartOrder) {
  // The fast path: every bucket leaves the counting pass already ordered,
  // so from_schedule sorts nothing for the paper's schedulers.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance instance = instance_for(seed, 64);
    for (const SchedulerKind kind : paper_schedulers()) {
      const Schedule schedule = make_scheduler(kind)->schedule(instance.comm);
      for (const PortSide side : {PortSide::kSend, PortSide::kReceive}) {
        const PortOrder order{schedule, side};
        for (std::size_t p = 0; p < 64; ++p)
          EXPECT_TRUE(std::is_sorted(order[p].begin(), order[p].end()))
              << scheduler_name(kind) << " seed=" << seed << " port " << p;
      }
    }
  }
}

TEST(PortOrder, AdversarialEventListsMatchTheReference) {
  // Arbitrary event lists, not schedules: starts and durations drawn from
  // tiny sets make equal (start, finish) ties and zero-duration events
  // common on every port, so only the index tiebreak orders them.
  std::mt19937_64 rng(2024);
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    const std::size_t p = 2 + trial % 9;
    const std::size_t count = rng() % (3 * p * p);
    std::vector<ScheduledEvent> events;
    for (std::size_t k = 0; k < count; ++k) {
      ScheduledEvent event;
      event.src = rng() % p;
      event.dst = (event.src + 1 + rng() % (p - 1)) % p;
      event.start_s = static_cast<double>(rng() % 3);
      event.finish_s = event.start_s + static_cast<double>(rng() % 2);
      events.push_back(event);
    }
    const Schedule schedule{p, std::move(events)};
    expect_matches_reference(schedule, "trial " + std::to_string(trial));
    const PortOrder by_sender{schedule, PortSide::kSend};
    for (std::size_t q = 0; q < p; ++q) {
      std::vector<ScheduledEvent> bucket;
      for (const std::size_t e : by_sender[q])
        bucket.push_back(schedule.events()[e]);
      EXPECT_EQ(schedule.sender_events(q), bucket) << "trial " << trial;
    }
  }
}

TEST(PortOrder, EmptyPortsAndEmptySchedules) {
  const Schedule empty{3, {}};
  const PortOrder order{empty, PortSide::kReceive};
  ASSERT_EQ(order.processor_count(), 3u);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_TRUE(order[p].empty());
  const SendProgram program = SendProgram::from_schedule(empty);
  EXPECT_EQ(program.event_count(), 0u);
}

TEST(PortOrder, RemainingProgramMatchesPerProcessorConstruction) {
  // The executors' round program: pairs outside a random `remaining`
  // mask are priced at zero, so the planned schedule carries zero-length
  // padding for them, and the keep-mask overload must drop exactly those.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::size_t p = 2 + (seed * 13) % 63;
    const ProblemInstance problem =
        make_instance(Scenario::kMixedMessages, p, seed);
    std::mt19937_64 rng(seed);
    const double keep_fraction = static_cast<double>(rng() % 101) / 100.0;
    Matrix<unsigned char> remaining(p, p, 0);
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < p; ++j)
        if (i != j && static_cast<double>(rng() % 1000) <
                          1000.0 * keep_fraction)
          remaining(i, j) = 1;
    const CommMatrix comm{
        problem.network.cost_matrix(problem.messages, remaining)};
    for (const SchedulerKind kind : paper_schedulers()) {
      const Schedule ordered = make_scheduler(kind)->schedule(comm);
      for (const Schedule& planned : {ordered, shuffled(ordered, seed)}) {
        const auto [orders, recv_orders] =
            reference_remaining(planned, remaining);
        const SendProgram program =
            SendProgram::from_schedule(planned, remaining);
        const std::string label = std::string(scheduler_name(kind)) +
                                  " seed=" + std::to_string(seed);
        EXPECT_EQ(program_orders(program, true), orders) << label;
        EXPECT_EQ(program_orders(program, false), recv_orders) << label;
      }
    }
  }
}

TEST(PortOrder, KeepMaskMustMatchTheSchedule) {
  const Schedule schedule{2, {{0, 1, 0.0, 1.0}, {1, 0, 0.0, 1.0}}};
  EXPECT_THROW((void)SendProgram::from_schedule(
                   schedule, Matrix<unsigned char>(3, 3, 1)),
               InputError);
}

TEST(PortOrder, FirstViolationMessagesMatchTheReferenceOnCorruptedSchedules) {
  // A corpus of schedules broken one way each: an event pulled earlier
  // or pushed later (port overlaps on either side), stretched, dropped,
  // duplicated, started before zero, or turned into a self-message.
  std::size_t overlaps = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::size_t p = 2 + seed % 23;
    const Instance instance = instance_for(seed, p);
    std::mt19937_64 rng(seed);
    for (const SchedulerKind kind : paper_schedulers()) {
      const Schedule schedule = make_scheduler(kind)->schedule(instance.comm);
      ASSERT_EQ(schedule.first_violation(instance.comm), std::nullopt);
      for (int corruption = 0; corruption < 8; ++corruption) {
        std::vector<ScheduledEvent> events = schedule.events();
        const std::size_t k = rng() % events.size();
        ScheduledEvent& event = events[k];
        const double shift = 0.25 + 0.5 * static_cast<double>(rng() % 4);
        switch (corruption) {
          case 0: case 1: {  // earlier: may overlap its port predecessor
            const double d = event.duration();
            event.start_s = std::max(0.0, event.start_s - shift * d);
            event.finish_s = event.start_s + d;
            break;
          }
          case 2: case 3: {  // later: may overlap its port successor
            const double d = event.duration();
            event.start_s += shift * d;
            event.finish_s = event.start_s + d;
            break;
          }
          case 4: event.finish_s += shift; break;
          case 5: events.erase(events.begin() + static_cast<long>(k)); break;
          case 6: events.push_back(event); break;
          case 7: event.start_s = -1.0; break;
        }
        const Schedule corrupted{p, std::move(events)};
        const auto expected = reference_violation(corrupted, instance.comm);
        EXPECT_EQ(corrupted.first_violation(instance.comm), expected)
            << scheduler_name(kind) << " seed=" << seed
            << " corruption=" << corruption;
        if (expected && expected->rfind("overlapping", 0) == 0) ++overlaps;
      }
    }
    const Schedule self{p, {{0, 0, 0.0, 1.0}}};
    EXPECT_EQ(self.first_violation(instance.comm),
              reference_violation(self, instance.comm));
  }
  EXPECT_GT(overlaps, 100u) << "the corpus must exercise the overlap scan";
}

}  // namespace
}  // namespace hcs
