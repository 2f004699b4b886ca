// Scenario execution and the golden-artifact fleet runner.
//
// execute_scenario is the one single-run pipeline: schedule with the
// resolved scheduler, validate the plan, and execute it (static,
// drifting, or fault-injected resilient execution) into a trace;
// audit_execution then checks that trace against the model invariants.
// run_scenario, `hcs trace` and `hcs simulate` all run through it.
//
// run_scenario executes one resolved scenario end to end — the pipeline
// above plus QoS compliance — and renders one deterministic JSON
// artifact. The artifact is a pure function of the spec: fixed key
// order, format_double-rendered numbers, no timestamps, no environment —
// so a checked-in golden copy is a regression test.
//
// run_scenario_directory is the fleet driver behind `hcs run-scenarios`:
// every *.scn file in a directory runs on the deterministic strided
// ThreadPool (byte-identical results at any thread count), and each
// artifact is compared byte-for-byte against DIR/golden/<name>.json.
// Setting FleetOptions::update_golden (the CLI's --update-golden, or
// HCS_UPDATE_GOLDEN in the environment) regenerates the goldens instead.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/resilient.hpp"
#include "scenario/resolve.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "trace/trace.hpp"

namespace hcs::scenario {

/// Deadline compliance of what actually executed (as opposed to
/// evaluate_qos on the planned schedule): delivered messages are late
/// when they finish past their deadline; undelivered messages with a
/// finite deadline count as missed outright.
struct ExecutedQos {
  std::size_t missed = 0;
  double max_tardiness_s = 0.0;
  double weighted_tardiness_s = 0.0;

  void add(std::size_t src, std::size_t dst, double finish_s, bool delivered,
           const QosSpec& qos);
};

/// One run of the pipeline: the planned schedule and what executing it
/// produced, whichever executor ran it.
struct Execution {
  Schedule planned;
  double executed_s = 0.0;
  double sender_wait_s = 0.0;  ///< static and drifting runs
  std::size_t events_executed = 0;
  std::size_t direct = 0;
  std::size_t relayed = 0;
  std::size_t rescued = 0;
  std::size_t undeliverable = 0;
  std::size_t replans = 0;
  std::size_t reschedules = 0;
  std::size_t failed_attempts = 0;
  ExecutedQos qos;  ///< filled when the spec has a [qos] section
  /// The fault-tolerant executor's result, on runs with a fault plan.
  std::optional<ResilientResult> resilient;
};

/// Trace ring capacity that keeps a whole run on `processors` nodes: a
/// total exchange records ~4 events per ordered pair (more under retries
/// and relays), and never less than the default 64k.
[[nodiscard]] std::size_t run_trace_capacity(std::size_t processors);

/// Schedules `resolved` with its scheduler, validates the plan, and
/// executes it into `trace`: with the fault-tolerant executor under
/// make_fault_plan's plan (scaled to the planned makespan) when the spec
/// has faults, otherwise on a drifting directory when drift_sigma > 0,
/// otherwise on the static directory. `options` sets the receive model
/// and its parameters; fault plans require the serialized model
/// (InputError otherwise).
[[nodiscard]] Execution execute_scenario(const ResolvedScenario& resolved,
                                         const SimOptions& options,
                                         EventTrace& trace);

/// Audits the trace of `exec` against the model invariants, with
/// serialized receives enforced iff `options` runs the serialized model.
/// A faulty run's completion time includes give-up instants, which are
/// not port engagements, so only fault-free runs are cross-checked
/// against their completion.
[[nodiscard]] AuditReport audit_execution(const Execution& exec,
                                          const SimOptions& options,
                                          const EventTrace& trace);

/// Outcome of one scenario execution.
struct ScenarioRun {
  /// The deterministic JSON artifact (newline-terminated).
  std::string artifact;
  /// Unmet expectations and audit violations; empty = the run is good.
  std::vector<std::string> failures;

  // Headline numbers, for tests that assert on behavior without parsing
  // the artifact.
  double lower_bound_s = 0.0;
  double planned_s = 0.0;
  double executed_s = 0.0;
  std::size_t undeliverable = 0;
  std::size_t executed_missed_deadlines = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Executes one scenario end to end. Deterministic in `spec`; safe to
/// call concurrently for different specs.
[[nodiscard]] ScenarioRun run_scenario(const ScenarioSpec& spec);

/// How one fleet entry resolved.
enum class FleetStatus {
  kOk,             ///< ran clean, artifact matches its golden
  kUpdated,        ///< ran clean, golden (re)written (update_golden)
  kParseError,     ///< the .scn file failed to parse or validate
  kFailed,         ///< an expectation or audit failed (see detail)
  kGoldenMissing,  ///< ran clean but no golden exists (run --update-golden)
  kGoldenDiff,     ///< ran clean but the artifact differs from the golden
};

/// Stable lower-case status name ("ok", "parse-error", ...).
[[nodiscard]] std::string_view fleet_status_name(FleetStatus status);

/// Fleet-runner configuration.
struct FleetOptions {
  /// Worker threads (0 = one per allowed hardware thread).
  std::size_t threads = 0;
  /// Write artifacts to DIR/golden/ instead of diffing against them.
  bool update_golden = false;
  /// When non-empty, only files whose name contains this substring run.
  std::string filter;
};

/// One scenario file's fleet outcome.
struct FleetEntry {
  std::string file;      ///< scenario file name (no directory)
  std::string scenario;  ///< spec name; empty on parse error
  FleetStatus status = FleetStatus::kOk;
  std::string detail;    ///< diagnostic for non-ok statuses
  std::string artifact;  ///< rendered artifact; empty on parse error
};

/// A whole directory's outcome, in file-name order.
struct FleetResult {
  std::vector<FleetEntry> entries;

  /// True when every entry is kOk or kUpdated.
  [[nodiscard]] bool ok() const;
};

/// Runs every *.scn file under `directory` (not recursive). Scenarios
/// execute on the strided ThreadPool into per-index slots, then goldens
/// are compared (or rewritten) serially in file-name order, so the
/// result is byte-identical at every thread count. Throws InputError
/// when the directory is missing or holds no matching scenario files.
[[nodiscard]] FleetResult run_scenario_directory(const std::string& directory,
                                                 const FleetOptions& options = {});

}  // namespace hcs::scenario
