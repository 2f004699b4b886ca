// Scenario resolution: ScenarioSpec -> runnable problem instance.
//
// Resolution composes the existing builders — workload/scenario.hpp's
// figure instances, netmodel's flat/clustered/GUSTO fabrics, src/qos
// deadline specs, core's flat/hierarchical/QoS schedulers — into one
// ResolvedScenario. Everything is a pure function of the spec: the same
// file resolves to bit-identical instances on every run, which is what
// lets the fleet runner (scenario/runner.hpp) diff artifacts against
// checked-in goldens.
//
// Instances come from make_instance (workload/scenario.hpp), so a .scn
// file with a paper workload on a flat or clustered fabric generates
// exactly the instance the figure sweeps, `hcs trace` and `hcs simulate`
// generate for the same (P, seed). The [faults] section is synthesized
// at run time by make_fault_plan (fault/fault_plan.hpp), the same
// function fault-sweep rows call, because the plan scales with the
// planned makespan.
#pragma once

#include <memory>

#include "core/comm_matrix.hpp"
#include "core/scheduler.hpp"
#include "netmodel/network_model.hpp"
#include "qos/qos_types.hpp"
#include "scenario/spec.hpp"
#include "workload/generators.hpp"
#include "workload/scenario.hpp"

namespace hcs::scenario {

/// A spec resolved into concrete inputs: the network snapshot, the
/// message matrix, their communication matrix (with the paper's t_lb),
/// the QoS annotations (unconstrained unless the spec has a [qos]
/// section), and the configured scheduler.
struct ResolvedScenario {
  ScenarioSpec spec;
  NetworkModel network;
  MessageMatrix messages;
  CommMatrix comm;
  double lower_bound_s = 0.0;
  QosSpec qos;
  std::unique_ptr<Scheduler> scheduler;
};

/// Resolves `spec`, which must be free of value defects (parse_scenario
/// guarantees it; a spec built in code is checked with
/// find_value_defect). Deterministic.
[[nodiscard]] ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

/// The .scn workload kind of one of the paper's four figure scenarios.
[[nodiscard]] WorkloadKind workload_kind(Scenario scenario);

}  // namespace hcs::scenario
