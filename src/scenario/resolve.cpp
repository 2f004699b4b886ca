#include "scenario/resolve.hpp"

#include <optional>
#include <utility>

#include "netmodel/cluster_detect.hpp"
#include "netmodel/gusto.hpp"
#include "qos/qos_scheduler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcs::scenario {
namespace {

/// The paper's four figure workloads, under their .scn and figure names.
constexpr std::pair<WorkloadKind, Scenario> kPaperWorkloads[] = {
    {WorkloadKind::kSmall, Scenario::kSmallMessages},
    {WorkloadKind::kLarge, Scenario::kLargeMessages},
    {WorkloadKind::kMixed, Scenario::kMixedMessages},
    {WorkloadKind::kServers, Scenario::kServers},
};

std::optional<Scenario> paper_scenario(WorkloadKind kind) {
  for (const auto& [workload, scenario] : kPaperWorkloads)
    if (workload == kind) return scenario;
  return std::nullopt;
}

QosSpec make_qos(const ScenarioSpec& spec, double lower_bound_s) {
  QosSpec qos = QosSpec::unconstrained(spec.processors);
  if (!spec.has_qos) return qos;
  const std::size_t n = spec.processors;
  for (std::size_t src = 0; src < n; ++src)
    for (std::size_t dst = 0; dst < n; ++dst)
      if (src != dst)
        qos.deadline_s(src, dst) = spec.deadline_factor * lower_bound_s;
  // Tight pairs get a shorter deadline and a higher priority; draws are
  // decorrelated from the instance seeds by a fixed salt.
  Rng rng{spec.seed ^ 0x71D3ADE5ULL};
  std::vector<char> tight(n * n, 0);
  std::size_t placed = 0;
  while (placed < spec.tight_pairs) {
    const auto src = static_cast<std::size_t>(rng.next_below(n));
    const auto dst = static_cast<std::size_t>(rng.next_below(n));
    if (src == dst || tight[src * n + dst] != 0) continue;
    tight[src * n + dst] = 1;
    qos.deadline_s(src, dst) = spec.tight_factor * lower_bound_s;
    qos.priority(src, dst) = spec.tight_priority;
    ++placed;
  }
  return qos;
}

std::unique_ptr<Scheduler> make_spec_scheduler(const ScenarioSpec& spec,
                                               const NetworkModel& network,
                                               const QosSpec& qos) {
  if (spec.qos_scheduler) {
    return std::make_unique<QosScheduler>(qos, spec.ordering);
  }
  std::optional<Clustering> clustering;
  if (spec.hierarchical) clustering = detect_clusters(network);
  return make_scheduler(spec.algorithm, spec.seed,
                        clustering ? &*clustering : nullptr);
}

}  // namespace

WorkloadKind workload_kind(Scenario scenario) {
  for (const auto& [workload, paper] : kPaperWorkloads)
    if (paper == scenario) return workload;
  throw InputError("workload_kind: unknown scenario");
}

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  // make_instance draws the flat or clustered network and, for the
  // paper's workloads, the messages: exactly the instance the figure
  // sweeps generate for the same (P, seed). The GUSTO fabric replaces the
  // drawn network, and uniform/transpose messages the drawn ones.
  const std::optional<Scenario> paper = paper_scenario(spec.workload);
  ProblemInstance instance = make_instance(
      paper.value_or(Scenario::kSmallMessages), spec.processors, spec.seed,
      spec.family == TopologyFamily::kClustered ? spec.sites : 0);
  if (spec.family == TopologyFamily::kGusto) instance.network = gusto::network();
  if (spec.workload == WorkloadKind::kUniform)
    instance.messages = uniform_messages(spec.processors, spec.uniform_bytes);
  if (spec.workload == WorkloadKind::kTranspose)
    instance.messages =
        transpose_messages(spec.processors, spec.transpose_rows,
                           spec.transpose_cols, spec.element_bytes);

  CommMatrix comm{instance.network, instance.messages};
  const double lower_bound_s = comm.lower_bound();
  QosSpec qos = make_qos(spec, lower_bound_s);
  std::unique_ptr<Scheduler> scheduler =
      make_spec_scheduler(spec, instance.network, qos);
  return ResolvedScenario{spec,
                          std::move(instance.network),
                          std::move(instance.messages),
                          std::move(comm),
                          lower_bound_s,
                          std::move(qos),
                          std::move(scheduler)};
}

}  // namespace hcs::scenario
