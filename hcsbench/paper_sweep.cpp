// paper_sweep: the paper's own pipeline as `hcs sweep --execute` runs it,
// one flat GUSTO-guided P = 64 mixed-message instance (the Figure 11
// family) per operation, on one thread with no daemon:
//
//   make_instance -> CommMatrix -> the five paper schedulers ->
//   serialized-receive simulation of each schedule -> traced execution of
//   the open-shop schedule audited by ScheduleAuditor.
//
// One processor count only, so per-operation latency has one mode.
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "core/comm_matrix.hpp"
#include "core/scheduler.hpp"
#include "graph/matching.hpp"
#include "sim/send_program.hpp"
#include "sim/simulator.hpp"
#include "trace/auditor.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace hcsbench {
namespace {

constexpr std::size_t kProcessors = 64;
/// Untimed instances each set-up pushes through the whole pipeline, so
/// every scheduler and simulator workspace is warm before timing starts.
constexpr std::size_t kWarmupInstances = 8;
constexpr std::size_t kKinds = 5;

const std::array<const char*, kKinds> kSolveSpan = {
    "core.solve_us.baseline", "core.solve_us.max_matching",
    "core.solve_us.min_matching", "core.solve_us.greedy",
    "core.solve_us.openshop"};
const std::array<const char*, kKinds> kRatioName = {
    "core.ratio.baseline", "core.ratio.max_matching",
    "core.ratio.min_matching", "core.ratio.greedy", "core.ratio.openshop"};

Bound bound_of(hcs::SchedulerKind kind) {
  if (kind == hcs::SchedulerKind::kOpenShop) return Bound::kOpenShop;
  if (kind == hcs::SchedulerKind::kBaseline) return Bound::kBaseline;
  return Bound::kNone;
}

/// Everything an operation reuses: warm schedulers, simulator workspace,
/// result buffers and the trace ring of the audited execution.
struct Pipeline {
  std::vector<std::unique_ptr<hcs::Scheduler>> schedulers;
  hcs::SimWorkspace workspace;
  std::array<hcs::SimResult, kKinds> executed;
  hcs::SimResult audited;
  hcs::EventTrace trace{4 * kProcessors * kProcessors};
  hcs::ScheduleAuditor auditor;

  explicit Pipeline(std::uint64_t seed) {
    for (const hcs::SchedulerKind kind : hcs::paper_schedulers())
      schedulers.push_back(hcs::make_scheduler(kind, seed));
  }
};

/// One operation's outputs, kept for the checker.
struct Outputs {
  std::optional<hcs::ProblemInstance> instance;
  std::vector<hcs::Schedule> schedules;
  hcs::AuditReport audit;
};

void run_instance(Pipeline& pipe, std::uint64_t instance_seed, Outputs& out,
                  Tracer* tracer, std::uint64_t op) {
  {
    Scoped s(tracer, "netmodel.instance_us", op);
    out.instance.emplace(hcs::make_instance(hcs::Scenario::kMixedMessages,
                                            kProcessors, instance_seed));
  }
  const hcs::ProblemInstance& instance = *out.instance;
  std::optional<hcs::CommMatrix> comm;
  {
    Scoped s(tracer, "netmodel.cost_matrix_us", op);
    comm.emplace(instance.network, instance.messages);
  }
  out.schedules.clear();
  for (std::size_t k = 0; k < kKinds; ++k) {
    Scoped s(tracer, kSolveSpan[k], op);
    out.schedules.push_back(pipe.schedulers[k]->schedule(*comm));
  }
  const hcs::StaticDirectory directory{instance.network};
  const hcs::NetworkSimulator simulator{directory, instance.messages};
  const hcs::SimOptions serialized;  // serialized receives, programmed grants
  for (std::size_t k = 0; k < kKinds; ++k) {
    Scoped s(tracer, "sim.run_us", op);
    simulator.run_into(hcs::SendProgram::from_schedule(out.schedules[k]),
                       serialized, pipe.workspace, pipe.executed[k]);
  }
  {
    Scoped s(tracer, "trace.audit_us", op);
    pipe.trace.clear();
    simulator.run_into_traced(
        hcs::SendProgram::from_schedule(out.schedules[kKinds - 1]), serialized,
        pipe.workspace, pipe.audited, pipe.trace);
    out.audit = pipe.auditor.audit(pipe.trace, pipe.audited.completion_time);
  }
}

std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (index + 1));
  return hcs::splitmix64(state);
}

}  // namespace

Tally run_paper_sweep(const RunOptions& options, bool traced) {
  Tally tally;
  tally.latency_us.emplace_back();
  std::unique_ptr<Tracer> tracer_owner =
      traced ? std::make_unique<Tracer>(1) : nullptr;
  Tracer* tracer = tracer_owner.get();

  // Set-up: warm pipelines built from scratch kSetupRepetitions times; the
  // last one serves the timed phase. Warm-up instances use seeds the
  // timed phase never uses.
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> pipe;
  Outputs out;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const std::int64_t t0 = now_ns();
    pipe = std::make_unique<Pipeline>(options.seed);
    for (std::size_t w = 0; w < kWarmupInstances; ++w)
      run_instance(*pipe, instance_seed(~options.seed, w), out, nullptr, 0);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  tally.setup_s = setup_median(setup_s);

  std::array<double, kKinds> kind_ratio{};
  double events = 0.0;
  std::int64_t excluded_ns = 0, excluded_cpu_ns = 0;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::uint64_t op = 0;
  while (now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    {
      Scoped root(tracer, "paper.instance", op);
      run_instance(*pipe, instance_seed(options.seed, op), out, tracer, op);
    }
    const std::int64_t t1 = now_ns();
    tally.latency_us[0].push_back(static_cast<double>(t1 - t0) / 1e3);
    ++tally.attempted;

    // Everything below is the checker (and, traced, the decomposition
    // probe); its time is left out of the timed phase.
    const std::int64_t c0 = thread_cpu_ns();
    const hcs::ProblemInstance& instance = *out.instance;
    if (tracer != nullptr) {
      const hcs::CommMatrix comm{instance.network, instance.messages};
      hcs::LapSolver solver;
      for (const auto objective : {hcs::MatchingObjective::kMaxWeight,
                                   hcs::MatchingObjective::kMinWeight}) {
        Scoped s(tracer, "graph.decompose_us", op);
        const auto matchings =
            hcs::decompose_into_matchings(comm.times(), objective, solver);
        if (matchings.empty()) ++tally.unexpected;
      }
    }
    const OwnCosts costs = own_costs(
        query_links(hcs::StaticDirectory{instance.network}, 0.0),
        instance.messages);
    std::optional<std::string> verdict;
    for (std::size_t k = 0; k < kKinds && !verdict; ++k) {
      const hcs::Schedule& schedule = out.schedules[k];
      const hcs::SimResult& run = pipe->executed[k];
      verdict = check_schedule(costs, schedule.events(),
                               schedule.completion_time(),
                               bound_of(hcs::paper_schedulers()[k]));
      if (!verdict)
        verdict = check_execution(costs, run.events, run.undelivered.size(),
                                  run.completion_time);
    }
    if (!verdict && !out.audit.ok()) verdict = "audit: " + out.audit.summary();
    if (!verdict &&
        pipe->audited.completion_time != pipe->executed[kKinds - 1].completion_time)
      verdict = "traced execution differs from the untraced one";
    if (verdict) {
      ++tally.failed;
      ++tally.unexpected;
      std::fprintf(stderr, "paper_sweep: operation %llu failed: %s\n",
                   static_cast<unsigned long long>(op), verdict->c_str());
    } else {
      for (std::size_t k = 0; k < kKinds; ++k) {
        const double r = out.schedules[k].completion_time() / costs.lower_bound;
        kind_ratio[k] += r;
        tally.ratio_sum += r / kKinds;
        tally.executed_sum +=
            pipe->executed[k].completion_time / costs.lower_bound / kKinds;
        events += static_cast<double>(pipe->executed[k].events.size());
      }
      ++tally.passed;
    }
    excluded_cpu_ns += thread_cpu_ns() - c0;
    excluded_ns += now_ns() - t1;
    ++op;
  }
  const std::int64_t elapsed = now_ns() - start;
  tally.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0 - excluded_cpu_ns);
  tally.ops_per_s = static_cast<double>(tally.attempted) /
                    (static_cast<double>(elapsed - excluded_ns) / 1e9);
  tally.peak_rss_mib = peak_rss_mib();
  for (std::size_t k = 0; k < kKinds; ++k)
    tally.layer[kRatioName[k]] =
        kind_ratio[k] / static_cast<double>(tally.passed);
  tally.layer["sim.events"] = events / static_cast<double>(tally.passed);
  if (tracer_owner) tally.tracers.push_back(std::move(tracer_owner));
  return tally;
}

}  // namespace hcsbench
