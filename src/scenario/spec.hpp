// Declarative scenario files: one plain-text file per end-to-end regime.
//
// Scenario diversity used to be hard-coded: every new combination of
// topology, workload, scheduler, fault plan, QoS deadlines, and directory
// drift meant a new bench or example. A .scn file names one such
// combination declaratively; the parser here turns it into a ScenarioSpec
// with strict, line-numbered diagnostics, and scenario/resolve.hpp
// composes the existing generators (workload/scenario.hpp, src/fault,
// src/qos, src/netmodel) into a runnable instance. The fleet runner
// (scenario/runner.hpp) then executes a directory of these files with
// golden-artifact regression, so every future feature is one new file
// plus one checked-in artifact instead of one new bench.
//
// File grammar (see DESIGN.md §scenario for the full reference):
//
//   # comment (full-line or trailing)
//   [section]
//   key = value
//
// Sections: [scenario] (name, seed), [topology] (family, processors,
// sites, drift_sigma, drift_period_s), [workload] (kind, bytes, rows,
// cols, element_bytes), [scheduler] (algorithm, hierarchical, ordering),
// [qos] (deadline_factor, tight_pairs, tight_factor, tight_priority),
// [faults] (crashes, cuts, loss, restarts, flaps, brownouts,
// brownout_factor, replan), [expect] (complete, max_ratio_to_lb,
// deadlines_met, golden). [qos], [faults], and [expect] are optional;
// keys that would be silently ignored (sites on a flat family, ordering
// on a non-QoS scheduler, ...) are rejected, so every accepted file is
// lossless under emit_scenario: parse(emit(parse(text))) ==
// parse(text).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/scheduler.hpp"
#include "qos/qos_scheduler.hpp"
#include "util/error.hpp"

namespace hcs::scenario {

/// Parse or validation failure, carrying the 1-based line the diagnostic
/// anchors to. what() is "line N: <message>"; the runner prefixes the
/// file name.
class ScenarioError : public InputError {
 public:
  ScenarioError(std::size_t line, const std::string& message)
      : InputError("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Which network family the topology section selects.
enum class TopologyFamily {
  kFlat,       ///< GUSTO-guided flat random draw (netmodel/generator.hpp)
  kClustered,  ///< site/WAN clustered family (generate_clustered_network)
  kGusto,      ///< the paper's fixed five-site GUSTO network (Tables 1-2)
};

/// Which message-size workload the workload section selects.
enum class WorkloadKind {
  kSmall,      ///< Figure 9: every message 1 kB
  kLarge,      ///< Figure 10: every message 1 MB
  kMixed,      ///< Figure 11: random mix of 1 kB and 1 MB
  kServers,    ///< Figure 12: 20% servers send 1 MB to clients
  kUniform,    ///< every message `bytes` (workload.bytes)
  kTranspose,  ///< §4.1 row-to-column redistribution (rows x cols)
};

/// One parsed scenario file. Plain data; resolution (network generation,
/// scheduler construction, fault-plan synthesis) lives in resolve.hpp.
struct ScenarioSpec {
  // [scenario]
  std::string name;        ///< required; [A-Za-z0-9_-]+
  std::uint64_t seed = 1;

  // [topology]
  TopologyFamily family = TopologyFamily::kFlat;
  std::size_t processors = 0;  ///< required (kGusto fixes it at 5)
  std::size_t sites = 4;       ///< kClustered only
  double drift_sigma = 0.0;    ///< DriftingDirectory log-sigma; 0 = static
  double drift_period_s = 1.0; ///< only with drift_sigma > 0

  // [workload]
  WorkloadKind workload = WorkloadKind::kMixed;
  std::uint64_t uniform_bytes = 64 * 1024;  ///< kUniform only
  std::size_t transpose_rows = 1024;        ///< kTranspose only
  std::size_t transpose_cols = 1024;        ///< kTranspose only
  std::uint64_t element_bytes = 8;          ///< kTranspose only

  // [scheduler]
  SchedulerKind algorithm = SchedulerKind::kOpenShop;
  bool qos_scheduler = false;  ///< algorithm = qos (deadline-aware)
  QosOrdering ordering = QosOrdering::kEdf;  ///< qos only
  bool hierarchical = false;   ///< wrap in HierarchicalScheduler

  // [qos] — present iff has_qos
  bool has_qos = false;
  double deadline_factor = 2.0;   ///< deadline = factor * t_lb, all pairs
  std::size_t tight_pairs = 0;    ///< seeded pairs with tighter deadlines
  double tight_factor = 0.5;      ///< tight deadline = tight_factor * t_lb
  double tight_priority = 10.0;   ///< priority of the tight pairs

  // [faults] — present iff has_faults; counts follow the hcs fault-sweep
  // conventions (crash-stops staggered on the highest nodes, restarts on
  // the lowest, seeded cut/flap/brownout pairs).
  bool has_faults = false;
  std::size_t crashes = 0;
  std::size_t cuts = 0;
  double loss = 0.0;
  std::size_t restarts = 0;
  std::size_t flaps = 0;
  std::size_t brownouts = 0;
  double brownout_factor = 0.25;
  bool replan = false;

  // [expect]
  bool expect_complete = true;      ///< every message delivered
  double expect_max_ratio = 0.0;    ///< planned/t_lb bound; 0 = unchecked
  bool expect_deadlines_met = false;  ///< no executed deadline misses
  std::string golden;  ///< artifact file name; "" = "<name>.json"

  [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;
};

/// Parses one scenario file. Throws ScenarioError with a 1-based line
/// number on the first syntactic or semantic defect.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text);

/// A spec whose values are inconsistent: the field at fault (its `.scn`
/// key, "section.key", or a section name), where a `.scn` diagnostic
/// anchors (that key's line, or the header line of a section), and the
/// message.
struct SpecDefect {
  std::string_view key;
  std::string_view anchor;
  std::string message;
};

/// The first semantic defect of a spec built in code (the `hcs trace` /
/// `hcs simulate` flags), or nullopt. parse_scenario runs the same
/// checks in the same order, interleaved with the checks on which keys a
/// file wrote, which only a file can fail.
[[nodiscard]] std::optional<SpecDefect> find_value_defect(
    const ScenarioSpec& spec);

/// Canonical emission: a .scn file that parses back to exactly `spec`
/// (parse(emit(s)) == s for any spec that came out of parse_scenario).
/// Optional sections are emitted only when present; keys whose value is
/// ignored in the spec's configuration are omitted.
[[nodiscard]] std::string emit_scenario(const ScenarioSpec& spec);

/// Names, as they appear in scenario files.
[[nodiscard]] std::string_view topology_family_name(TopologyFamily family);
[[nodiscard]] std::string_view workload_kind_name(WorkloadKind kind);
[[nodiscard]] std::string_view qos_ordering_name(QosOrdering ordering);

}  // namespace hcs::scenario
