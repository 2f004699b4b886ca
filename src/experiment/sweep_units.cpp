#include "experiment/sweep_units.hpp"

#include <memory>

#include "netmodel/directory.hpp"
#include "sim/send_program.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hcs {

void validate_experiment_config(const ExperimentConfig& config) {
  if (config.processor_counts.empty() || config.repetitions == 0 ||
      config.schedulers.empty())
    throw InputError("run_experiment: empty config");
  if (config.execute && (!config.execution.initial_send_avail.empty() ||
                         !config.execution.initial_recv_avail.empty()))
    throw InputError(
        "run_experiment: execution options must not carry initial "
        "availability vectors");
}

std::uint64_t sweep_instance_seed(std::uint64_t base,
                                  std::size_t processor_count,
                                  std::size_t repetition) {
  std::uint64_t state = base ^ (0x9E3779B97F4A7C15ULL * (processor_count + 1)) ^
                        (0xC2B2AE3D27D4EB4FULL * (repetition + 1));
  return splitmix64(state);
}

void SweepUnitRunner::run(std::size_t unit, std::span<double> out) {
  const ExperimentConfig& config = *config_;
  const SweepUnitSpace space = SweepUnitSpace::of(config);
  const std::size_t processors =
      config.processor_counts[space.point_of(unit)];
  const std::size_t rep = space.repetition_of(unit);
  const std::size_t sched_count = config.schedulers.size();

  const std::uint64_t seed =
      sweep_instance_seed(config.base_seed, processors, rep);
  const ProblemInstance instance =
      make_instance(config.scenario, processors, seed, config.cluster_count);
  const CommMatrix comm{instance.network, instance.messages};
  const double lower_bound = comm.lower_bound();
  out[0] = lower_bound;
  if (metrics_ != nullptr) metrics_->counter("experiment.instances").add();
  // One detection per instance, shared by every scheduler.
  Clustering clustering;
  if (config.hierarchical)
    clustering = detect_clusters(instance.network, config.cluster_options);

  for (std::size_t s = 0; s < sched_count; ++s) {
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(
        config.schedulers[s], seed, config.hierarchical ? &clustering : nullptr);
    const Schedule schedule = scheduler->schedule(comm);
    if (config.validate) schedule.validate(comm);
    const double completion = schedule.completion_time();
    out[1 + s] = completion;
    if (metrics_ != nullptr) {
      metrics_->counter("experiment.schedules").add();
      metrics_->histogram("experiment.completion_s").observe(completion);
      if (lower_bound > 0.0)
        metrics_->histogram("experiment.ratio_to_lb")
            .observe(completion / lower_bound);
    }
    if (config.execute) {
      const StaticDirectory directory{instance.network};
      const NetworkSimulator simulator{directory, instance.messages};
      simulator.run_into(SendProgram::from_schedule(schedule),
                         config.execution, workspace_, sim_result_);
      out[1 + sched_count + s] = sim_result_.completion_time;
      if (metrics_ != nullptr) {
        metrics_->counter("sim.events").add(sim_result_.events.size());
        metrics_->counter("sim.failed_attempts")
            .add(sim_result_.failed_attempts);
        metrics_->histogram("sim.completion_s")
            .observe(sim_result_.completion_time);
        metrics_->histogram("sim.sender_wait_s")
            .observe(sim_result_.total_sender_wait_s);
      }
    }
  }
}

void run_sweep_units(const ExperimentConfig& config, std::size_t begin,
                     std::size_t end, std::span<double> out,
                     MetricsRegistry* metrics) {
  const SweepUnitSpace space = SweepUnitSpace::of(config);
  const std::size_t vpu = space.values_per_unit();
  if (begin > end || end > space.total_units())
    throw InputError("run_sweep_units: unit range out of bounds");
  if (out.size() != (end - begin) * vpu)
    throw InputError("run_sweep_units: output span size mismatch");
  SweepUnitRunner runner(config, metrics);
  for (std::size_t unit = begin; unit < end; ++unit)
    runner.run(unit, out.subspan((unit - begin) * vpu, vpu));
}

ExperimentResult assemble_experiment_result(const ExperimentConfig& config,
                                            std::span<const double> values) {
  const SweepUnitSpace space = SweepUnitSpace::of(config);
  const std::size_t vpu = space.values_per_unit();
  if (values.size() != space.total_units() * vpu)
    throw InputError(
        "assemble_experiment_result: value vector size mismatch");

  ExperimentResult result;
  result.config = config;
  result.series.reserve(config.schedulers.size());
  for (const SchedulerKind kind : config.schedulers)
    result.series.push_back({kind, {}, {}, {}, {}});

  const std::size_t sched_count = config.schedulers.size();
  for (std::size_t p = 0; p < space.points; ++p) {
    RunningStats lower_bound_stats;
    std::vector<RunningStats> completion_stats(sched_count);
    std::vector<RunningStats> ratio_stats(sched_count);
    std::vector<RunningStats> executed_stats(sched_count);
    for (std::size_t rep = 0; rep < space.repetitions; ++rep) {
      const double* unit_values =
          values.data() + (p * space.repetitions + rep) * vpu;
      const double lower_bound = unit_values[0];
      lower_bound_stats.add(lower_bound);
      for (std::size_t s = 0; s < sched_count; ++s) {
        const double completion = unit_values[1 + s];
        completion_stats[s].add(completion);
        ratio_stats[s].add(lower_bound > 0.0 ? completion / lower_bound : 1.0);
        if (config.execute)
          executed_stats[s].add(unit_values[1 + sched_count + s]);
      }
    }

    result.mean_lower_bound_s.push_back(lower_bound_stats.mean());
    for (std::size_t s = 0; s < sched_count; ++s) {
      result.series[s].mean_completion_s.push_back(completion_stats[s].mean());
      result.series[s].mean_ratio_to_lb.push_back(ratio_stats[s].mean());
      result.series[s].max_ratio_to_lb.push_back(ratio_stats[s].max());
      if (config.execute)
        result.series[s].mean_executed_s.push_back(executed_stats[s].mean());
    }
  }
  return result;
}

}  // namespace hcs
