#include "sim/send_program.hpp"

#include <span>

#include "util/error.hpp"

namespace hcs {

SendProgram::SendProgram(std::vector<std::vector<std::size_t>> orders)
    : orders_(std::move(orders)) {
  const std::size_t n = orders_.size();
  if (n == 0) throw InputError("SendProgram: zero processors");
  for (std::size_t src = 0; src < n; ++src)
    for (const std::size_t dst : orders_[src]) {
      if (dst >= n) throw InputError("SendProgram: destination out of range");
      if (dst == src) throw InputError("SendProgram: self-message");
    }
}

SendProgram::SendProgram(std::vector<std::vector<std::size_t>> orders,
                         std::vector<std::vector<std::size_t>> recv_orders)
    : SendProgram(std::move(orders)) {
  recv_orders_ = std::move(recv_orders);
  const std::size_t n = orders_.size();
  if (recv_orders_.size() != n)
    throw InputError("SendProgram: receiver order count mismatch");
  // Consistency: the same multiset of events on both sides.
  Matrix<int> count(n, n, 0);
  for (std::size_t src = 0; src < n; ++src)
    for (const std::size_t dst : orders_[src]) ++count(src, dst);
  for (std::size_t dst = 0; dst < n; ++dst)
    for (const std::size_t src : recv_orders_[dst]) {
      if (src >= n) throw InputError("SendProgram: source out of range");
      if (--count(src, dst) < 0)
        throw InputError("SendProgram: receive order names an unsent message");
    }
  count.for_each([](std::size_t, std::size_t, const int& c) {
    if (c != 0) throw InputError("SendProgram: sent message missing a receive slot");
  });
}

SendProgram::SendProgram(FromOneEventList,
                         std::vector<std::vector<std::size_t>> orders,
                         std::vector<std::vector<std::size_t>> recv_orders)
    : SendProgram(std::move(orders)) {
  recv_orders_ = std::move(recv_orders);
}

namespace {

/// One side's order lists: each port's kept events in PortOrder, naming
/// the far end (destinations for senders, sources for receivers).
std::vector<std::vector<std::size_t>> port_lists(
    const Schedule& schedule, PortSide side,
    const Matrix<unsigned char>* keep) {
  const PortOrder order{schedule, side};
  const std::vector<ScheduledEvent>& events = schedule.events();
  std::vector<std::vector<std::size_t>> lists(order.processor_count());
  for (std::size_t p = 0; p < lists.size(); ++p) {
    const std::span<const std::size_t> port = order[p];
    lists[p].reserve(port.size());
    for (const std::size_t e : port) {
      const ScheduledEvent& event = events[e];
      if (keep != nullptr && (*keep)(event.src, event.dst) == 0) continue;
      lists[p].push_back(side == PortSide::kSend ? event.dst : event.src);
    }
  }
  return lists;
}

}  // namespace

SendProgram SendProgram::from_schedule(const Schedule& schedule) {
  return SendProgram{FromOneEventList{},
                     port_lists(schedule, PortSide::kSend, nullptr),
                     port_lists(schedule, PortSide::kReceive, nullptr)};
}

SendProgram SendProgram::from_schedule(const Schedule& schedule,
                                       const Matrix<unsigned char>& keep) {
  const std::size_t n = schedule.processor_count();
  if (keep.rows() != n || keep.cols() != n)
    throw InputError("SendProgram: keep mask size mismatch");
  return SendProgram{FromOneEventList{},
                     port_lists(schedule, PortSide::kSend, &keep),
                     port_lists(schedule, PortSide::kReceive, &keep)};
}

SendProgram SendProgram::from_steps(const StepSchedule& steps) {
  const std::size_t n = steps.processor_count();
  std::vector<std::vector<std::size_t>> orders(n);
  std::vector<std::vector<std::size_t>> recv_orders(n);
  for (const auto& step : steps.steps())
    for (const CommEvent& event : step) {
      orders[event.src].push_back(event.dst);
      recv_orders[event.dst].push_back(event.src);
    }
  return SendProgram{std::move(orders), std::move(recv_orders)};
}

std::size_t SendProgram::event_count() const {
  std::size_t count = 0;
  for (const auto& order : orders_) count += order.size();
  return count;
}

}  // namespace hcs
