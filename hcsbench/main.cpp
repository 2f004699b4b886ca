// hcsbench: one run of one workload.
//
//   hcsbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 sets up, runs the timed phase and prints every end-to-end
// metric. --trace 1 does that, then repeats the workload with spans
// recorded around the calls into each layer, and prints every per-layer
// metric plus the traced-minus-untraced difference of each end-to-end
// metric; the spans are written to DIR/trace-NAME-seedN.json (Chrome
// trace_event format). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace hcsbench {

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double setup_median(const std::vector<double>& seconds) {
  std::fprintf(stderr, "  set-up repetitions (s):");
  for (const double s : seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  return median_of(seconds);
}

namespace {

/// Quantile by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Samples per block of the latency percentiles: a p95 over 200 samples
/// leaves ten beyond it.
constexpr std::size_t kBlockSamples = 200;

/// Latency percentile of a run: the median, over blocks of at least
/// kBlockSamples consecutive operations, of each block's percentile. A
/// stretch of host-induced slowness then moves the blocks it falls in,
/// not the run's figure.
double block_quantile(const std::vector<std::vector<double>>& streams,
                      double q) {
  std::vector<double> per_block;
  for (const std::vector<double>& samples : streams) {
    const std::size_t blocks = std::max<std::size_t>(1, samples.size() / kBlockSamples);
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * samples.size() / blocks);
      const auto last = samples.begin() + static_cast<std::ptrdiff_t>((b + 1) * samples.size() / blocks);
      per_block.push_back(quantile({first, last}, q));
    }
  }
  return median_of(per_block);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},   {"latency_p95_us", "us"},
    {"cpu_us_per_op", "us"},    {"peak_rss_mb", "MiB"},
    {"makespan_ratio", "ratio"}, {"executed_ratio", "ratio"},
};

const char* const kPerLayer[][2] = {
    {"netmodel.instance_us", "us"},
    {"netmodel.snapshot_us", "us"},
    {"netmodel.cost_matrix_us", "us"},
    {"netmodel.cluster_detect_us", "us"},
    {"graph.decompose_us", "us"},
    {"core.solve_us.baseline", "us"},
    {"core.solve_us.max_matching", "us"},
    {"core.solve_us.min_matching", "us"},
    {"core.solve_us.greedy", "us"},
    {"core.solve_us.openshop", "us"},
    {"core.solve_us.hierarchical", "us"},
    {"core.ratio.baseline", "ratio"},
    {"core.ratio.max_matching", "ratio"},
    {"core.ratio.min_matching", "ratio"},
    {"core.ratio.greedy", "ratio"},
    {"core.ratio.openshop", "ratio"},
    {"sim.run_us", "us"},
    {"sim.events", "count"},
    {"trace.audit_us", "us"},
    {"service.wire.request_bytes", "bytes"},
    {"service.wire.response_bytes", "bytes"},
    {"service.wire.encode_request_us", "us"},
    {"service.wire.decode_request_us", "us"},
    {"service.wire.encode_response_us", "us"},
    {"service.wire.decode_response_us", "us"},
    {"service.key_build_us", "us"},
    {"service.round_trip_us", "us"},
    {"service.server_us", "us"},
    {"service.transport_us", "us"},
    {"service.solve_us", "us"},
    {"service.cache.hit_rate", "ratio"},
    {"service.cache.hits", "count"},
    {"service.cache.misses", "count"},
    {"service.cache.evictions", "count"},
    {"service.memo_hits", "count"},
    {"service.snapshot_builds", "count"},
    {"service.cache.stale_hits", "count"},
    {"service.client_cpu_us_per_op", "us"},
    {"service.server_cpu_us_per_op", "us"},
    {"service.connect_us", "us"},
    {"service.open_fds_after_run", "count"},
};

std::vector<Metric> end_to_end(const Tally& t) {
  const double ops = static_cast<double>(t.attempted);
  const double values[] = {
      t.setup_s,
      t.ops_per_s,
      block_quantile(t.latency_us, 0.50),
      block_quantile(t.latency_us, 0.95),
      t.cpu_ns / 1e3 / ops,
      t.peak_rss_mib,
      t.ratio_sum / static_cast<double>(t.passed),
      t.executed_sum / static_cast<double>(t.passed),
  };
  std::vector<Metric> out;
  for (std::size_t k = 0; k < std::size(kEndToEnd); ++k)
    out.push_back({kEndToEnd[k][0], kEndToEnd[k][1], values[k]});
  return out;
}

std::vector<Metric> per_layer(const Tally& traced, const Tally& untraced) {
  std::vector<const Tracer*> tracers;
  for (const auto& tracer : traced.tracers) tracers.push_back(tracer.get());
  const auto spans = aggregate_spans(tracers);
  std::vector<Metric> out;
  // A layer the workload does not exercise reads 0.
  for (const auto& [name, unit] : kPerLayer) {
    double value = 0.0;
    if (const auto it = traced.layer.find(name); it != traced.layer.end())
      value = it->second;
    else if (const auto s = spans.find(name); s != spans.end())
      value = s->second.mean_self_us();
    out.push_back({name, unit, value});
  }
  const std::vector<Metric> on = end_to_end(traced), off = end_to_end(untraced);
  for (std::size_t k = 0; k < on.size(); ++k)
    out.push_back({"overhead." + on[k].name, on[k].unit,
                   on[k].value - off[k].value});
  return out;
}

/// Process-wide resource use, to standard error: where the CPU went.
void print_rusage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  std::fprintf(stderr,
               "  rusage: user %.3f s, system %.3f s, minor faults %ld, "
               "context switches %ld voluntary / %ld involuntary\n",
               static_cast<double>(u.ru_utime.tv_sec) + u.ru_utime.tv_usec / 1e6,
               static_cast<double>(u.ru_stime.tv_sec) + u.ru_stime.tv_usec / 1e6,
               u.ru_minflt, u.ru_nvcsw, u.ru_nivcsw);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  std::fprintf(stderr, "  attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               correct ? "true" : "false");
  print_rusage();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t k = 0; k < metrics.size(); ++k)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics[k].name.c_str(),
                std::isfinite(metrics[k].value) ? metrics[k].value : 0.0,
                metrics[k].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

Tally run_workload(const RunOptions& options, bool traced) {
  if (options.workload == "paper_sweep") return run_paper_sweep(options, traced);
  if (options.workload == "warm_hits") return run_warm_hits(options, traced);
  if (options.workload == "drift_mix") return run_drift_mix(options, traced);
  if (options.workload == "wide_hier") return run_wide_hier(options, traced);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

/// CPU time of a fixed arithmetic loop over a 64 KiB stack buffer on the
/// calling thread. The buffer stays off the heap: a large freed block
/// would raise glibc's mmap and trim thresholds and change how the
/// measured program allocates for the rest of the run.
double probe_cpu_s() {
  std::array<std::uint64_t, 8192> buffer;
  buffer.fill(1);
  const std::int64_t t0 = thread_cpu_ns();
  std::uint64_t acc = 0;
  for (int pass = 0; pass < 256; ++pass)
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      acc += buffer[i] * (i | 1);
      buffer[i] = acc;
    }
  const std::int64_t t1 = thread_cpu_ns();
  if (acc == 0) std::fprintf(stderr, " ");  // keeps the loop observable
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Confines every thread of this process (the in-process daemon's too;
/// they inherit the mask) to one CPU: the allowed CPU that runs a short
/// probe loop fastest. A closed loop has one runnable thread per
/// connection at a time, so one CPU costs the single-connection workloads
/// nothing, and hand-offs between threads become local context switches
/// instead of cross-CPU wake-ups, whose latency on a virtual machine
/// swings with the host's load. The probe steers clear of a CPU that a
/// neighbour on the host is slowing down at the time.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int best = -1;
  double best_s = 0.0;
  for (int round = 0; round < 2; ++round)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
      const double s = probe_cpu_s();
      if (best < 0 || s < best_s) best = cpu, best_s = s;
    }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0)
    std::fprintf(stderr, "hcsbench: could not pin to CPU %d\n", best);
  else
    std::fprintf(stderr, "hcsbench: pinned to CPU %d\n", best);
}

int usage() {
  std::fprintf(stderr,
               "usage: hcsbench --workload paper_sweep|warm_hits|drift_mix|"
               "wide_hier --seed N --seconds S --trace 0|1 [--scratch DIR]\n");
  return 2;
}

int run(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--scratch") options.scratch_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || options.workload.empty() || !(options.seconds > 0))
    return usage();

  pin_to_one_cpu();
  const std::vector<std::string> missed = checker_self_test();
  for (const std::string& m : missed)
    std::fprintf(stderr, "checker self-test failed: %s\n", m.c_str());
  if (missed.empty())
    std::fprintf(stderr, "checker self-test: valid schedule accepted, 5 "
                         "corrupted copies rejected\n");

  std::fprintf(stderr, "hcsbench %s seed %llu, %g s%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? ", traced" : "");
  const Tally untraced = run_workload(options, false);
  if (!options.trace) {
    print_result(missed.empty() && untraced.unexpected == 0, untraced.attempted,
                 untraced.failed, end_to_end(untraced));
    return 0;
  }
  const Tally traced = run_workload(options, true);
  std::vector<const Tracer*> tracers;
  for (const auto& tracer : traced.tracers) tracers.push_back(tracer.get());
  const std::string path = options.scratch_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  write_chrome_trace(path, tracers, 200000);
  std::fprintf(stderr, "spans written to %s\n", path.c_str());
  print_result(
      missed.empty() && untraced.unexpected == 0 && traced.unexpected == 0,
      untraced.attempted + traced.attempted, untraced.failed + traced.failed,
      per_layer(traced, untraced));
  return 0;
}

}  // namespace
}  // namespace hcsbench

int main(int argc, char** argv) {
  try {
    return hcsbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hcsbench: %s\n", error.what());
    return 1;
  }
}
