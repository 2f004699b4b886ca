// The output checker. It shares no code with the schedulers, the cost
// kernel or the auditor: costs come from the directory's query() and are
// combined here, and every rule is re-derived from the paper's model
// (§3.4 validity, §4 Theorems 2 and 3).
#include <algorithm>
#include <cmath>
#include <string>

#include "bench.hpp"

namespace hcsbench {
namespace {

/// Slack for comparing times that the program derived by adding
/// durations: a few ulps of the largest time involved, never a share of a
/// duration (a stale cost differs by percents, far above this).
double slack(double scale) { return 1e-9 * std::max(1.0, std::fabs(scale)); }

std::optional<std::string> check_ports(
    std::size_t processors, const std::vector<hcs::ScheduledEvent>& events,
    bool by_sender) {
  std::vector<std::vector<std::pair<double, double>>> port(processors);
  for (const hcs::ScheduledEvent& e : events)
    port[by_sender ? e.src : e.dst].emplace_back(e.start_s, e.finish_s);
  for (std::size_t p = 0; p < processors; ++p) {
    auto& intervals = port[p];
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t k = 1; k < intervals.size(); ++k)
      if (intervals[k - 1].second > intervals[k].first + slack(intervals[k].first))
        return std::string(by_sender ? "overlapping sends" : "overlapping receives") +
               " at node " + std::to_string(p);
  }
  return std::nullopt;
}

/// Rules common to planned schedules and simulated executions.
std::optional<std::string> check_events(
    const OwnCosts& costs, const std::vector<hcs::ScheduledEvent>& events,
    double completion_s) {
  const std::size_t n = costs.processors;
  if (events.size() != n * (n - 1))
    return "expected " + std::to_string(n * (n - 1)) + " events, got " +
           std::to_string(events.size());
  std::vector<unsigned char> seen(n * n, 0);
  double last_finish = 0.0;
  for (const hcs::ScheduledEvent& e : events) {
    if (e.src >= n || e.dst >= n || e.src == e.dst)
      return "event with bad endpoints " + std::to_string(e.src) + "->" +
             std::to_string(e.dst);
    if (seen[e.src * n + e.dst]++ != 0)
      return "pair " + std::to_string(e.src) + "->" + std::to_string(e.dst) +
             " appears twice";
    if (e.start_s < -slack(0.0))
      return "negative start for " + std::to_string(e.src) + "->" +
             std::to_string(e.dst);
    const double own = costs.cost[e.src * n + e.dst];
    if (std::fabs((e.finish_s - e.start_s) - own) > slack(e.finish_s))
      return "pair " + std::to_string(e.src) + "->" + std::to_string(e.dst) +
             " lasts " + std::to_string(e.finish_s - e.start_s) +
             " s, its cost is " + std::to_string(own) + " s";
    last_finish = std::max(last_finish, e.finish_s);
  }
  if (auto v = check_ports(n, events, true)) return v;
  if (auto v = check_ports(n, events, false)) return v;
  if (std::fabs(completion_s - last_finish) > slack(last_finish))
    return "completion " + std::to_string(completion_s) +
           " s differs from the last finish " + std::to_string(last_finish) +
           " s";
  if (completion_s < costs.lower_bound - slack(costs.lower_bound))
    return "completion " + std::to_string(completion_s) +
           " s is below t_lb " + std::to_string(costs.lower_bound) + " s";
  return std::nullopt;
}

}  // namespace

LinkTable query_links(const hcs::DirectoryService& directory, double now_s) {
  LinkTable links;
  const std::size_t n = directory.processor_count();
  links.processors = n;
  links.startup.assign(n * n, 0.0);
  links.bandwidth.assign(n * n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const hcs::LinkParams params = directory.query(i, j, now_s);
      links.startup[i * n + j] = params.startup_s;
      links.bandwidth[i * n + j] = params.bandwidth_Bps;
    }
  return links;
}

OwnCosts own_costs(const LinkTable& links, const hcs::MessageMatrix& messages) {
  const std::size_t n = links.processors;
  OwnCosts costs;
  costs.processors = n;
  costs.cost.assign(n * n, 0.0);
  std::vector<double> send(n, 0.0), recv(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double c = links.startup[i * n + j] +
                       static_cast<double>(messages(i, j)) /
                           links.bandwidth[i * n + j];
      costs.cost[i * n + j] = c;
      send[i] += c;
      recv[j] += c;
    }
  for (std::size_t p = 0; p < n; ++p)
    costs.lower_bound = std::max({costs.lower_bound, send[p], recv[p]});
  return costs;
}

std::optional<std::string> check_schedule(
    const OwnCosts& costs, const std::vector<hcs::ScheduledEvent>& events,
    double claimed_completion_s, Bound bound) {
  if (auto v = check_events(costs, events, claimed_completion_s)) return v;
  const double lb = costs.lower_bound;
  if (bound == Bound::kOpenShop && claimed_completion_s > 2.0 * lb + slack(lb))
    return "open shop completion exceeds 2 t_lb (Theorem 3)";
  if (bound == Bound::kBaseline &&
      claimed_completion_s >
          0.5 * static_cast<double>(costs.processors) * lb + slack(lb))
    return "baseline completion exceeds (P/2) t_lb (Theorem 2)";
  return std::nullopt;
}

std::optional<std::string> check_execution(
    const OwnCosts& costs, const std::vector<hcs::ScheduledEvent>& events,
    std::size_t undelivered, double completion_s) {
  if (undelivered != 0)
    return std::to_string(undelivered) + " messages undelivered";
  return check_events(costs, events, completion_s);
}

std::vector<std::string> checker_self_test() {
  // A 5-node caterpillar on made-up links: step s sends i -> i+s, each
  // step starting when the previous one's longest event ends.
  constexpr std::size_t n = 5;
  LinkTable links;
  links.processors = n;
  links.startup.assign(n * n, 0.0);
  links.bandwidth.assign(n * n, 1.0);
  hcs::MessageMatrix messages(n, n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) {
        links.startup[i * n + j] = 0.01 * static_cast<double>(1 + (i + 2 * j) % 7);
        links.bandwidth[i * n + j] = 1e6 * static_cast<double>(1 + (3 * i + j) % 5);
        messages(i, j) = 1000 * (1 + (i * j) % 4);
      }
  const OwnCosts costs = own_costs(links, messages);
  std::vector<hcs::ScheduledEvent> valid;
  double step_start = 0.0;
  for (std::size_t s = 1; s < n; ++s) {
    double step_end = step_start;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + s) % n;
      const double c = costs.cost[i * n + j];
      valid.push_back({i, j, step_start, step_start + c});
      step_end = std::max(step_end, step_start + c);
    }
    step_start = step_end;
  }
  const auto completion_of = [](const std::vector<hcs::ScheduledEvent>& ev) {
    double c = 0.0;
    for (const auto& e : ev) c = std::max(c, e.finish_s);
    return c;
  };
  const double completion = completion_of(valid);

  std::vector<std::string> missed;
  if (auto v = check_schedule(costs, valid, completion, Bound::kBaseline))
    missed.push_back("valid schedule rejected: " + *v);

  const auto expect_reject = [&](const char* what,
                                 std::vector<hcs::ScheduledEvent> events,
                                 double claimed) {
    if (!check_schedule(costs, events, claimed, Bound::kNone))
      missed.push_back(what);
  };
  {  // The last-finishing event moved later; the claim keeps the old end.
    auto events = valid;
    auto last = std::max_element(events.begin(), events.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.finish_s < b.finish_s;
                                 });
    last->start_s += 0.25;
    last->finish_s += 0.25;
    expect_reject("shifted start", events, completion);
  }
  {
    auto events = valid;
    events[3].finish_s += 0.01 * events[3].duration();
    expect_reject("wrong duration", events, completion_of(events));
  }
  {
    auto events = valid;
    events.pop_back();
    expect_reject("dropped pair", events, completion_of(events));
  }
  {  // Replaces one pair by a second copy of another, placed after the end.
    auto events = valid;
    hcs::ScheduledEvent copy = events[1];
    const double d = copy.duration();
    copy.start_s = completion;
    copy.finish_s = completion + d;
    events[0] = copy;
    expect_reject("duplicated pair", events, completion_of(events));
  }
  {  // Node 0's second send pulled back onto its first.
    auto events = valid;
    std::size_t first = n, second = n;
    for (std::size_t k = 0; k < events.size(); ++k)
      if (events[k].src == 0) (first == n ? first : second) = k;
    const double d = events[second].duration();
    events[second].start_s = events[first].start_s;
    events[second].finish_s = events[first].start_s + d;
    expect_reject("overlapping sends", events, completion_of(events));
  }
  return missed;
}

}  // namespace hcsbench
