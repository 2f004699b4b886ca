#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace hcs {

Schedule::Schedule(std::size_t processor_count,
                   std::vector<ScheduledEvent> events)
    : processor_count_(processor_count), events_(std::move(events)) {
  if (processor_count_ == 0) throw InputError("Schedule: zero processors");
  for (const ScheduledEvent& event : events_) {
    if (event.src >= processor_count_ || event.dst >= processor_count_)
      throw InputError("Schedule: event processor index out of range");
    if (event.finish_s < event.start_s)
      throw InputError("Schedule: event finishes before it starts");
  }
}

double Schedule::completion_time() const {
  double latest = 0.0;
  for (const ScheduledEvent& event : events_)
    latest = std::max(latest, event.finish_s);
  return latest;
}

PortOrder::PortOrder(const Schedule& schedule, PortSide side)
    : offsets_(schedule.processor_count() + 1, 0),
      indices_(schedule.events().size()) {
  const std::vector<ScheduledEvent>& events = schedule.events();
  const std::size_t ScheduledEvent::*const port =
      side == PortSide::kSend ? &ScheduledEvent::src : &ScheduledEvent::dst;
  for (const ScheduledEvent& event : events) ++offsets_[event.*port + 1];
  for (std::size_t p = 1; p < offsets_.size(); ++p)
    offsets_[p] += offsets_[p - 1];

  // The fill visits events in index order, so each port's bucket fills in
  // index order; comparing an event with its port's previous one flags
  // the buckets that are not also in (start, finish) order.
  const std::size_t n = schedule.processor_count();
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  std::vector<const ScheduledEvent*> last(n, nullptr);
  std::vector<unsigned char> unordered(n, 0);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const ScheduledEvent& event = events[e];
    const std::size_t p = event.*port;
    const ScheduledEvent* previous = last[p];
    if (previous != nullptr &&
        (event.start_s < previous->start_s ||
         (event.start_s == previous->start_s &&
          event.finish_s < previous->finish_s)))
      unordered[p] = 1;
    last[p] = &event;
    indices_[next[p]++] = e;
  }
  const auto before = [&events](std::size_t a, std::size_t b) {
    const ScheduledEvent& x = events[a];
    const ScheduledEvent& y = events[b];
    if (x.start_s != y.start_s) return x.start_s < y.start_s;
    if (x.finish_s != y.finish_s) return x.finish_s < y.finish_s;
    return a < b;
  };
  for (std::size_t p = 0; p < n; ++p)
    if (unordered[p] != 0)
      std::sort(indices_.data() + offsets_[p],
                indices_.data() + offsets_[p + 1], before);
}

namespace {

std::vector<ScheduledEvent> port_events(const Schedule& schedule,
                                        PortSide side, std::size_t processor) {
  const PortOrder order{schedule, side};
  std::vector<ScheduledEvent> result;
  for (const std::size_t e : order[processor])
    result.push_back(schedule.events()[e]);
  return result;
}

}  // namespace

std::vector<ScheduledEvent> Schedule::sender_events(std::size_t src) const {
  check(src < processor_count_, "Schedule: sender out of range");
  return port_events(*this, PortSide::kSend, src);
}

std::vector<ScheduledEvent> Schedule::receiver_events(std::size_t dst) const {
  check(dst < processor_count_, "Schedule: receiver out of range");
  return port_events(*this, PortSide::kReceive, dst);
}

std::vector<ProcessorIdle> Schedule::idle_profile() const {
  std::vector<ProcessorIdle> profile(processor_count_);
  const auto accumulate = [this](std::span<const std::size_t> port,
                                 double& busy, double& idle) {
    double cursor = 0.0;
    for (const std::size_t e : port) {
      const ScheduledEvent& event = events_[e];
      busy += event.duration();
      if (event.start_s > cursor) idle += event.start_s - cursor;
      cursor = std::max(cursor, event.finish_s);
    }
  };
  const PortOrder by_sender{*this, PortSide::kSend};
  const PortOrder by_receiver{*this, PortSide::kReceive};
  for (std::size_t p = 0; p < processor_count_; ++p) {
    accumulate(by_sender[p], profile[p].send_busy_s, profile[p].send_idle_s);
    accumulate(by_receiver[p], profile[p].recv_busy_s, profile[p].recv_idle_s);
  }
  return profile;
}

namespace {

std::optional<std::string> find_overlap(
    const std::vector<ScheduledEvent>& events,
    std::span<const std::size_t> sorted, double tolerance, const char* port,
    std::size_t processor) {
  // Zero-duration events occupy no port time; skip them.
  const ScheduledEvent* previous = nullptr;
  for (const std::size_t e : sorted) {
    const ScheduledEvent* event = &events[e];
    if (event->duration() <= tolerance) continue;
    if (previous != nullptr &&
        event->start_s < previous->finish_s - tolerance) {
      std::ostringstream message;
      message << "overlapping " << port << " events at processor " << processor
              << ": [" << previous->start_s << ", " << previous->finish_s
              << ") and [" << event->start_s << ", " << event->finish_s << ")";
      return message.str();
    }
    previous = event;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> Schedule::first_violation(const CommMatrix& comm,
                                                     double tolerance) const {
  const std::size_t n = processor_count_;
  if (comm.processor_count() != n)
    return "schedule and communication matrix sizes differ";

  // Coverage: exactly one event per ordered pair of distinct processors.
  Matrix<int> covered(n, n, 0);
  for (const ScheduledEvent& event : events_) {
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
  std::size_t expected_events = n * (n - 1);
  if (events_.size() != expected_events)
    return "schedule does not cover every processor pair exactly once";

  const PortOrder by_sender{*this, PortSide::kSend};
  const PortOrder by_receiver{*this, PortSide::kReceive};
  for (std::size_t p = 0; p < n; ++p) {
    if (auto overlap =
            find_overlap(events_, by_sender[p], tolerance, "send", p))
      return overlap;
    if (auto overlap =
            find_overlap(events_, by_receiver[p], tolerance, "receive", p))
      return overlap;
  }
  return std::nullopt;
}

void Schedule::validate(const CommMatrix& comm, double tolerance) const {
  if (auto violation = first_violation(comm, tolerance))
    throw ScheduleError(*violation);
}

bool Schedule::is_valid(const CommMatrix& comm, double tolerance) const noexcept {
  return !first_violation(comm, tolerance).has_value();
}

std::string render_timing_diagram(const Schedule& schedule, std::size_t rows) {
  const std::size_t n = schedule.processor_count();
  const double makespan = schedule.completion_time();
  if (rows == 0) rows = 1;

  // Column width: enough for "->dd|".
  const std::size_t label_width = n > 10 ? 5 : 4;
  std::vector<std::string> grid(rows, std::string(n * label_width, ' '));

  for (const ScheduledEvent& event : schedule.events()) {
    if (makespan <= 0.0) break;
    auto row_of = [&](double t) {
      const double fraction = t / makespan;
      return std::min(rows - 1,
                      static_cast<std::size_t>(fraction * static_cast<double>(rows)));
    };
    const std::size_t first = row_of(event.start_s);
    // Half-open interval: the finish row is exclusive unless the event
    // would be invisible.
    std::size_t last = row_of(std::nexttoward(event.finish_s, 0.0));
    last = std::max(last, first);
    const std::size_t col = event.src * label_width;
    for (std::size_t r = first; r <= last; ++r) {
      std::string cell = (r == first)
                             ? ">" + std::to_string(event.dst)
                             : std::string("|");
      if (cell.size() > label_width - 1) cell.resize(label_width - 1);
      for (std::size_t k = 0; k < cell.size(); ++k) grid[r][col + k] = cell[k];
    }
  }

  std::ostringstream out;
  out << "time";
  for (std::size_t p = 0; p < n; ++p) {
    std::string header = "P" + std::to_string(p);
    header.resize(label_width, ' ');
    out << (p == 0 ? "  " : "") << header;
  }
  out << '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    const double t = makespan * static_cast<double>(r) / static_cast<double>(rows);
    char time_label[16];
    std::snprintf(time_label, sizeof time_label, "%5.1f ", t);
    out << time_label << grid[r] << '\n';
  }
  return out.str();
}

}  // namespace hcs
