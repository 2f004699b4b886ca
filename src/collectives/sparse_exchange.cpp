#include "collectives/sparse_exchange.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "graph/lap.hpp"
#include "util/error.hpp"

namespace hcs {

SparsePattern::SparsePattern(std::size_t processor_count,
                             Matrix<unsigned char> required)
    : required_(std::move(required)) {
  if (!required_.square() || required_.rows() != processor_count ||
      processor_count == 0)
    throw InputError("SparsePattern: mask must be P x P");
  for (std::size_t p = 0; p < processor_count; ++p)
    if (required_(p, p) != 0)
      throw InputError("SparsePattern: self-messages are not allowed");
}

SparsePattern SparsePattern::total_exchange(std::size_t processor_count) {
  Matrix<unsigned char> mask(processor_count, processor_count, 1);
  for (std::size_t p = 0; p < processor_count; ++p) mask(p, p) = 0;
  return SparsePattern{processor_count, std::move(mask)};
}

SparsePattern SparsePattern::all_to_some(
    std::size_t processor_count, const std::vector<std::size_t>& destinations) {
  Matrix<unsigned char> mask(processor_count, processor_count, 0);
  for (const std::size_t dst : destinations) {
    check(dst < processor_count, "all_to_some: destination out of range");
    for (std::size_t src = 0; src < processor_count; ++src)
      if (src != dst) mask(src, dst) = 1;
  }
  return SparsePattern{processor_count, std::move(mask)};
}

SparsePattern SparsePattern::some_to_all(
    std::size_t processor_count, const std::vector<std::size_t>& sources) {
  Matrix<unsigned char> mask(processor_count, processor_count, 0);
  for (const std::size_t src : sources) {
    check(src < processor_count, "some_to_all: source out of range");
    for (std::size_t dst = 0; dst < processor_count; ++dst)
      if (src != dst) mask(src, dst) = 1;
  }
  return SparsePattern{processor_count, std::move(mask)};
}

SparsePattern SparsePattern::from_messages(const MessageMatrix& messages) {
  if (!messages.square() || messages.empty())
    throw InputError("SparsePattern::from_messages: matrix must be square");
  const std::size_t n = messages.rows();
  Matrix<unsigned char> mask(n, n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && messages(i, j) > 0) mask(i, j) = 1;
  return SparsePattern{n, std::move(mask)};
}

std::size_t SparsePattern::event_count() const {
  std::size_t count = 0;
  required_.for_each([&](std::size_t, std::size_t, const unsigned char& r) {
    if (r != 0) ++count;
  });
  return count;
}

double SparsePattern::lower_bound(const CommMatrix& comm) const {
  check(comm.processor_count() == processor_count(),
        "SparsePattern: comm matrix size mismatch");
  const std::size_t n = processor_count();
  double bound = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    double send_total = 0.0;
    double recv_total = 0.0;
    for (std::size_t q = 0; q < n; ++q) {
      if (needs(p, q)) send_total += comm.time(p, q);
      if (needs(q, p)) recv_total += comm.time(q, p);
    }
    bound = std::max({bound, send_total, recv_total});
  }
  return bound;
}

namespace {

void require(bool condition, const std::string& message) {
  if (!condition) throw ScheduleError(message);
}

}  // namespace

void SparsePattern::validate(const Schedule& schedule, const CommMatrix& comm,
                             double tolerance) const {
  const std::size_t n = processor_count();
  require(schedule.processor_count() == n && comm.processor_count() == n,
          "sparse validate: size mismatch");
  Matrix<int> covered(n, n, 0);
  for (const ScheduledEvent& event : schedule.events()) {
    require(event.src != event.dst, "sparse validate: self-message");
    require(needs(event.src, event.dst),
            "sparse validate: event outside the pattern");
    require(covered(event.src, event.dst) == 0,
            "sparse validate: duplicated pair");
    covered(event.src, event.dst) = 1;
    require(event.start_s >= -tolerance, "sparse validate: negative start");
    const double expected = comm.time(event.src, event.dst);
    require(std::abs(event.duration() - expected) <=
                tolerance * std::max(1.0, expected),
            "sparse validate: duration does not match the matrix");
  }
  require(schedule.events().size() == event_count(),
          "sparse validate: missing required events");

  for (const PortSide side : {PortSide::kSend, PortSide::kReceive}) {
    const PortOrder order{schedule, side};
    for (std::size_t p = 0; p < n; ++p) {
      const ScheduledEvent* previous = nullptr;
      for (const std::size_t e : order[p]) {
        const ScheduledEvent& event = schedule.events()[e];
        if (event.duration() <= tolerance) continue;
        if (previous != nullptr)
          require(event.start_s >= previous->finish_s - tolerance,
                  "sparse validate: overlapping port events");
        previous = &event;
      }
    }
  }
}

Schedule schedule_sparse_openshop(const SparsePattern& pattern,
                                  const CommMatrix& comm) {
  const std::size_t n = pattern.processor_count();
  check(comm.processor_count() == n, "sparse openshop: size mismatch");

  std::vector<std::vector<std::size_t>> receiver_set(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (pattern.needs(i, j)) receiver_set[i].push_back(j);

  std::vector<double> recv_avail(n, 0.0);
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> senders;
  for (std::size_t i = 0; i < n; ++i)
    if (!receiver_set[i].empty()) senders.push({0.0, i});

  std::vector<ScheduledEvent> events;
  events.reserve(pattern.event_count());
  while (!senders.empty()) {
    const auto [avail, sender] = senders.top();
    senders.pop();
    auto& candidates = receiver_set[sender];
    std::size_t best_pos = 0;
    for (std::size_t pos = 1; pos < candidates.size(); ++pos)
      if (recv_avail[candidates[pos]] < recv_avail[candidates[best_pos]])
        best_pos = pos;
    const std::size_t receiver = candidates[best_pos];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best_pos));
    const double start = std::max(avail, recv_avail[receiver]);
    const double finish = start + comm.time(sender, receiver);
    events.push_back({sender, receiver, start, finish});
    recv_avail[receiver] = finish;
    if (!candidates.empty()) senders.push({finish, sender});
  }
  return Schedule{n, std::move(events)};
}

StepSchedule sparse_matching_steps(const SparsePattern& pattern,
                                   const CommMatrix& comm) {
  const std::size_t n = pattern.processor_count();
  check(comm.processor_count() == n, "sparse matching: size mismatch");

  // Weight required edges with a uniform bonus W larger than the total of
  // all event times: the maximum-weight complete matching then schedules
  // a maximum-cardinality set of remaining required edges each round
  // (heaviest-first among equal cardinalities), so the round count is the
  // pattern's maximum port degree (Koenig).
  double total_time = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (pattern.needs(i, j)) total_time += comm.time(i, j);
  const double bonus = total_time + 1.0;

  Matrix<unsigned char> remaining(n, n, 0);
  std::size_t remaining_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (pattern.needs(i, j)) {
        remaining(i, j) = 1;
        ++remaining_count;
      }

  std::vector<std::vector<CommEvent>> steps;
  while (remaining_count > 0) {
    Matrix<double> weights(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (remaining(i, j) != 0) weights(i, j) = bonus + comm.time(i, j);
    const Assignment matching = solve_lap_max(weights);

    std::vector<CommEvent> step;
    for (std::size_t src = 0; src < n; ++src) {
      const std::size_t dst = matching.row_to_col[src];
      if (remaining(src, dst) == 0) continue;  // dummy pairing, not an event
      step.push_back({src, dst});
      remaining(src, dst) = 0;
      --remaining_count;
    }
    check(!step.empty(), "sparse matching: no progress");
    steps.push_back(std::move(step));
  }
  return StepSchedule{n, std::move(steps)};
}

Schedule schedule_sparse_matching(const SparsePattern& pattern,
                                  const CommMatrix& comm) {
  return execute_async(sparse_matching_steps(pattern, comm), comm);
}

Schedule schedule_sparse_baseline(const SparsePattern& pattern,
                                  const CommMatrix& comm) {
  const std::size_t n = pattern.processor_count();
  check(comm.processor_count() == n, "sparse baseline: size mismatch");
  std::vector<std::vector<CommEvent>> steps;
  for (std::size_t offset = 1; offset < n; ++offset) {
    std::vector<CommEvent> step;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + offset) % n;
      if (pattern.needs(i, j)) step.push_back({i, j});
    }
    if (!step.empty()) steps.push_back(std::move(step));
  }
  return execute_async(StepSchedule{n, std::move(steps)}, comm);
}

}  // namespace hcs
