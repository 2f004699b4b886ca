// Shared pieces of the hcs benchmark: run options, the per-run tally each
// workload fills, the span recorder used by the traced mode, and the
// output checker that judges every result on the requester's own costs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "netmodel/directory.hpp"
#include "util/matrix.hpp"
#include "workload/generators.hpp"

namespace hcsbench {

// ---------------------------------------------------------------- clocks

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CPU time of the calling thread, ns.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// CPU time of the whole process (all threads, user + system), ns.
[[nodiscard]] std::int64_t process_cpu_ns();
/// Peak resident set size of the process, MiB.
[[nodiscard]] double peak_rss_mib();

// ----------------------------------------------------------------- spans

/// One timed call into a layer. `parent` indexes the same thread's span
/// vector (kNoParent for a root); spans of one operation share `op`.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  const char* name = "";
  std::uint32_t parent = kNoParent;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span recorder. Spans live in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(std::uint32_t thread_id) : thread_id_(thread_id) {}
  std::uint32_t begin(const char* name, std::uint64_t op);
  void end(std::uint32_t index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t thread_id() const { return thread_id_; }

 private:
  std::uint32_t thread_id_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; does nothing when `tracer` is null (the untraced mode).
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, op) : 0) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// Per-name aggregate over every recorded span: call count and summed
/// self time (duration minus the direct children's durations).
struct SpanStats {
  std::uint64_t calls = 0;
  double self_us = 0.0;
  [[nodiscard]] double mean_self_us() const {
    return calls == 0 ? 0.0 : self_us / static_cast<double>(calls);
  }
};
[[nodiscard]] std::map<std::string, SpanStats> aggregate_spans(
    const std::vector<const Tracer*>& tracers);
/// Writes every span as a Chrome trace_event "X" record (opens in
/// Perfetto / chrome://tracing). At most `max_spans` spans are written.
void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::size_t max_spans);

// --------------------------------------------------------------- checker

/// The requester's own costs for one exchange, computed by the benchmark
/// from the directory's link parameters: cost(i, j) = T_ij + m_ij / B_ij.
struct OwnCosts {
  std::size_t processors = 0;
  std::vector<double> cost;  ///< row-major P x P, diagonal 0
  double lower_bound = 0.0;  ///< t_lb: max per-node send or receive sum
};
/// Link parameters of every ordered pair at `now_s`, straight from the
/// directory's query() (no snapshot, no cost kernel of the program).
struct LinkTable {
  std::size_t processors = 0;
  std::vector<double> startup;
  std::vector<double> bandwidth;
};
[[nodiscard]] LinkTable query_links(const hcs::DirectoryService& directory,
                                    double now_s);
[[nodiscard]] OwnCosts own_costs(const LinkTable& links,
                                 const hcs::MessageMatrix& messages);

/// Which of the paper's approximation bounds applies to a schedule.
enum class Bound {
  kNone,      ///< only t_lb <= completion
  kOpenShop,  ///< Theorem 3: completion <= 2 t_lb
  kBaseline,  ///< Theorem 2: completion <= (P/2) t_lb
};

/// First violation of a timed schedule against the requester's costs, or
/// nullopt when it is valid: every ordered pair exactly once with its own
/// duration, no overlapping sends or receives, claimed completion equal
/// to the last finish, t_lb <= completion, and the theorem bound.
[[nodiscard]] std::optional<std::string> check_schedule(
    const OwnCosts& costs, const std::vector<hcs::ScheduledEvent>& events,
    double claimed_completion_s, Bound bound);
/// First violation of a simulated execution: every message delivered
/// exactly once, with its own duration, finishing no earlier than t_lb.
[[nodiscard]] std::optional<std::string> check_execution(
    const OwnCosts& costs, const std::vector<hcs::ScheduledEvent>& events,
    std::size_t undelivered, double completion_s);
/// Feeds check_schedule corrupted copies of a valid schedule (shifted
/// start, wrong duration, dropped pair, duplicated pair, overlapping
/// sends); returns a description of each corruption it failed to reject.
[[nodiscard]] std::vector<std::string> checker_self_test();

// ------------------------------------------------------------------- run

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir = ".";  ///< sockets and the Chrome-trace file
};

/// What one phase (untraced or traced) of a workload measured.
struct Tally {
  double setup_s = 0.0;            ///< median over the set-up repetitions
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< outputs that failed the checker
  std::uint64_t unexpected = 0;    ///< failures outside the known fault
  /// Latency of every attempted operation, one stream per connection in
  /// completion order.
  std::vector<std::vector<double>> latency_us;
  double ops_per_s = 0.0;          ///< summed over connections
  double cpu_ns = 0.0;  ///< process CPU in the timed phase, checks excluded
  std::uint64_t passed = 0;        ///< operations whose outputs passed
  double ratio_sum = 0.0;          ///< served/planned completion / t_lb
  double executed_sum = 0.0;       ///< simulated completion / t_lb
  double peak_rss_mib = 0.0;       ///< at the end of the timed phase
  /// Layer metrics that are not span self times (counts, scrape deltas).
  std::map<std::string, double> layer;
  std::vector<std::unique_ptr<Tracer>> tracers;  ///< traced phase only
};

/// Median of the set-up repetitions each workload makes: set-up time is
/// reported as the median of this many full set-ups.
inline constexpr int kSetupRepetitions = 11;
[[nodiscard]] double median_of(std::vector<double> values);
/// Median of the set-up repetitions' durations; the durations go to
/// standard error.
[[nodiscard]] double setup_median(const std::vector<double>& seconds);

[[nodiscard]] Tally run_paper_sweep(const RunOptions& options, bool traced);
[[nodiscard]] Tally run_warm_hits(const RunOptions& options, bool traced);
[[nodiscard]] Tally run_drift_mix(const RunOptions& options, bool traced);
[[nodiscard]] Tally run_wide_hier(const RunOptions& options, bool traced);

}  // namespace hcsbench
