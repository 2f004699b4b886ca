// Clocks and the in-memory span recorder of the traced mode.
#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "bench.hpp"

namespace hcsbench {
namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.op = op;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::end(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, SpanStats> aggregate_spans(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanStats> stats;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans)
      if (span.parent != Span::kNoParent)
        child_us[span.parent] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      SpanStats& s = stats[spans[i].name];
      ++s.calls;
      s.self_us += us - child_us[i];
    }
  }
  return stats;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::size_t max_spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::fixed << std::setprecision(3);
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const Tracer* tracer : tracers)
    if (!tracer->spans().empty() &&
        (!have_origin || tracer->spans().front().start_ns < origin)) {
      origin = tracer->spans().front().start_ns;
      have_origin = true;
    }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  std::size_t written = 0;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      if (written == max_spans) break;
      out << (written == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tracer->thread_id()
          << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"op\":" << span.op << ",\"parent\":"
          << (span.parent == Span::kNoParent ? -1
                                             : static_cast<long long>(span.parent))
          << "}}";
      ++written;
    }
  }
  out << "\n]}\n";
}

}  // namespace hcsbench
