// The hcsd workloads. Each runs an in-process ScheduleServer on a real
// UNIX socket and drives it from closed-loop ServiceClient connections,
// because hcsd's callers (ServiceClient users, `hcs replay` closed mode,
// the sweep driver) all block on each reply.
//
//   warm_hits   static flat P = 64, max-matching, 2 connections, 8 primed
//               workloads each: every request is a cache hit; each
//               connection reconnects once per round of 512 requests.
//   drift_mix   DriftingDirectory over flat P = 64, 1 connection: exact
//               repeats, in-bucket near-repeats (served stale: the known
//               fault) and bucket-crossing near-repeats (solved), with
//               now_s stepping through a fixed range of drift periods.
//   wide_hier   static clustered site/WAN P = 256, hierarchical(open
//               shop), 1 connection, a pool larger than the cache: every
//               request misses, detects clusters and solves.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "service/client.hpp"
#include "service/schedule_cache.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "sim/send_program.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hcsbench {
namespace {

namespace svc = hcs::service;

/// A wedged daemon surfaces as an error, never as a hang.
constexpr double kClientTimeoutS = 30.0;
/// hcsd's default key quantum; the in-bucket construction relies on it.
constexpr double kQuantum = 0.25;

// ------------------------------------------------------------ requests

/// One distinct request a workload sends, with the checker's memo: a
/// response whose digest matches the last one checked for this request
/// reuses that verdict instead of being checked again.
struct Served {
  svc::ScheduleRequest request;
  const LinkTable* links = nullptr;  ///< requester's links at request.now_s
  Bound bound = Bound::kNone;
  /// A near-repeat whose nudged costs stay in the cached entry's key
  /// bucket: hcsd serves it the entry's schedule (ROADMAP open item 2).
  bool stale_by_design = false;

  double lower_bound = 0.0;  ///< requester's t_lb, set by the first check
  std::optional<std::uint64_t> checked_digest;
  std::optional<std::string> verdict;
  double executed_s = 0.0;  ///< simulated completion of the checked response
};

/// 64-bit digest of a response's completion and events (word-wise
/// multiply-xorshift; not the program's hash).
std::uint64_t digest(const svc::ScheduleResponse& r) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ r.events.size();
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  };
  std::uint64_t word = 0;
  std::memcpy(&word, &r.completion_s, sizeof(word));
  mix(word);
  const auto* bytes = reinterpret_cast<const unsigned char*>(r.events.data());
  const std::size_t size = r.events.size() * sizeof(hcs::ScheduledEvent);
  for (std::size_t k = 0; k + sizeof(word) <= size; k += sizeof(word)) {
    std::memcpy(&word, bytes + k, sizeof(word));
    mix(word);
  }
  return h;
}

const std::optional<std::string>& check_served(Served& s,
                                               const svc::ScheduleResponse& r) {
  const std::uint64_t d = digest(r);
  if (s.checked_digest == d) return s.verdict;
  const OwnCosts costs = own_costs(*s.links, s.request.messages);
  s.lower_bound = costs.lower_bound;
  s.verdict = check_schedule(costs, r.events, r.completion_s, s.bound);
  s.executed_s = 0.0;
  if (!s.verdict) {
    // Execute the served schedule on the requester's own links.
    const std::size_t n = s.links->processors;
    hcs::Matrix<double> startup(n, n, 0.0), bandwidth(n, n, 1.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        startup(i, j) = s.links->startup[i * n + j];
        bandwidth(i, j) = s.links->bandwidth[i * n + j];
      }
    const hcs::StaticDirectory directory{
        hcs::NetworkModel{std::move(startup), std::move(bandwidth)}};
    const hcs::NetworkSimulator simulator{directory, s.request.messages};
    const hcs::SimResult run =
        simulator.run(hcs::SendProgram::from_schedule(r.to_schedule()));
    s.verdict = check_execution(costs, run.events, run.undelivered.size(),
                                run.completion_time);
    s.executed_s = run.completion_time;
  }
  s.checked_digest = d;
  return s.verdict;
}

/// What a workload's set-up builds before the daemon starts.
struct Inputs {
  std::unique_ptr<hcs::DirectoryService> directory;
  std::map<double, LinkTable> links;  ///< requester's links per now_s
  std::vector<std::unique_ptr<Served>> served;
  std::vector<std::vector<Served*>> rounds;   ///< one round per connection
  std::vector<std::vector<Served*>> priming;  ///< sent untimed in set-up
};

/// Shape of the daemon and its clients for one workload.
struct Spec {
  std::size_t connections = 1;
  svc::ScheduleCache::Options cache;
  bool reconnect_each_round = false;
  Inputs (*build)(std::uint64_t seed) = nullptr;
};

Served& add_served(Inputs& in, hcs::SchedulerKind kind, bool hierarchical,
                   double now_s, hcs::MessageMatrix messages) {
  auto s = std::make_unique<Served>();
  s->request.kind = kind;
  s->request.hierarchical = hierarchical;
  s->request.now_s = now_s;
  s->request.messages = std::move(messages);
  s->links = &in.links.at(now_s);
  in.served.push_back(std::move(s));
  return *in.served.back();
}

/// Each hcsd workload serves one fixed fabric, as a deployed daemon does;
/// --seed drives the traffic (message matrices, near-repeat pairs), not
/// the fabric, so run-to-run differences measure hcs rather than how
/// hard one random fabric happens to be.
constexpr std::uint64_t kFabricSeed = 20260101;

hcs::MessageMatrix mixed(std::size_t p, hcs::Rng& rng) {
  return hcs::mixed_messages(p, rng.next_u64(), {hcs::kKiB, hcs::kMiB});
}

// ------------------------------------------------------------ warm_hits

constexpr std::size_t kWarmProcessors = 64;
constexpr std::size_t kWarmConnections = 2;
constexpr std::size_t kWarmWorkingSet = 8;
constexpr std::size_t kWarmCyclesPerRound = 64;  // 512 requests per round

Inputs build_warm_hits(std::uint64_t seed) {
  Inputs in;
  hcs::Rng rng{seed ^ 0x5741524DULL};
  in.directory = std::make_unique<hcs::StaticDirectory>(
      hcs::generate_network(kWarmProcessors, kFabricSeed));
  in.links.emplace(0.0, query_links(*in.directory, 0.0));
  for (std::size_t c = 0; c < kWarmConnections; ++c) {
    std::vector<Served*> set;
    for (std::size_t w = 0; w < kWarmWorkingSet; ++w)
      set.push_back(&add_served(in, hcs::SchedulerKind::kMaxMatching, false,
                                0.0, mixed(kWarmProcessors, rng)));
    std::vector<Served*> round;
    for (std::size_t k = 0; k < kWarmCyclesPerRound; ++k)
      round.insert(round.end(), set.begin(), set.end());
    in.rounds.push_back(std::move(round));
    in.priming.push_back(std::move(set));
  }
  return in;
}

// ------------------------------------------------------------ drift_mix

constexpr std::size_t kDriftProcessors = 64;
constexpr std::size_t kDriftBases = 6;
constexpr int kDriftPeriods = 8;  ///< now_s = 1 .. 8, one drift period each
constexpr double kDriftPeriodS = 1.0;
constexpr double kDriftSigma = 0.1;
/// Holds one period's 3 keys per base with room to spare, and far fewer
/// than a round's 3 * kDriftBases * kDriftPeriods: every solve misses
/// again when the round comes back to its period.
constexpr std::size_t kDriftCacheCapacity = 24;
constexpr std::size_t kNudgedPairs = 4;
constexpr double kNudge = 0.04;  ///< relative size change of a nudged pair
/// Distance, in key-bucket widths, a nudged cost keeps from a bucket edge.
constexpr double kEdgeMargin = 0.05;

/// Position of a cost on hcsd's key grid: level index plus offset.
double grid(double cost) { return std::log(cost) / kQuantum; }

/// Copies `base` with kNudgedPairs sizes scaled by 1 +- kNudge, chosen so
/// that every nudged cost stays inside its key bucket (`cross` false) or
/// moves into the neighbouring one (`cross` true), with kEdgeMargin to
/// spare either way. The pairs come from `rng`.
hcs::MessageMatrix nudge(const hcs::MessageMatrix& base, const LinkTable& links,
                         bool cross, hcs::Rng& rng) {
  const std::size_t n = base.rows();
  hcs::MessageMatrix out = base;
  std::vector<unsigned char> used(n * n, 0);
  std::size_t done = 0;
  while (done < kNudgedPairs) {
    const std::size_t i = rng.next_below(n), j = rng.next_below(n);
    if (i == j || used[i * n + j]) continue;
    const double t = links.startup[i * n + j], b = links.bandwidth[i * n + j];
    const double before = grid(t + static_cast<double>(base(i, j)) / b);
    for (const double sign : {1.0, -1.0}) {
      const auto bytes = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(base(i, j)) * (1.0 + sign * kNudge)));
      const double after = grid(t + static_cast<double>(bytes) / b);
      const double edge_distance =
          0.5 - std::fabs(after - std::round(after));
      const bool crossed = std::llround(after) != std::llround(before);
      if (crossed == cross && edge_distance >= kEdgeMargin &&
          0.5 - std::fabs(before - std::round(before)) >= kEdgeMargin) {
        out(i, j) = bytes;
        used[i * n + j] = 1;
        ++done;
        break;
      }
    }
  }
  return out;
}

Inputs build_drift_mix(std::uint64_t seed) {
  Inputs in;
  hcs::Rng rng{seed ^ 0x44524946ULL};
  hcs::DriftingDirectory::Options drift;
  drift.update_period_s = kDriftPeriodS;
  drift.step_sigma = kDriftSigma;
  in.directory = std::make_unique<hcs::DriftingDirectory>(
      hcs::generate_network(kDriftProcessors, kFabricSeed), kFabricSeed + 1,
      drift);
  std::vector<hcs::MessageMatrix> bases;
  for (std::size_t b = 0; b < kDriftBases; ++b)
    bases.push_back(mixed(kDriftProcessors, rng));

  std::vector<Served*> round;
  for (int period = 1; period <= kDriftPeriods; ++period) {
    const double now_s = period * kDriftPeriodS;
    const LinkTable& links =
        in.links.emplace(now_s, query_links(*in.directory, now_s)).first->second;
    std::vector<Served*> exact, near_in, crossing, crossing_again;
    const auto add = [&](const hcs::MessageMatrix& messages) {
      return &add_served(in, hcs::SchedulerKind::kMaxMatching, false, now_s,
                         messages);
    };
    for (std::size_t b = 0; b < kDriftBases; ++b) {
      exact.push_back(add(bases[b]));
      near_in.push_back(add(nudge(bases[b], links, false, rng)));
      near_in.back()->stale_by_design = true;
      crossing.push_back(add(nudge(bases[b], links, true, rng)));
      crossing_again.push_back(add(nudge(bases[b], links, true, rng)));
    }
    // Per base and period: the exact request (solve), its in-bucket
    // near-repeat (stale hit), two crossing near-repeats (solves), the
    // exact request again (hit). The shares are fixed at 20% hits, 20%
    // stale hits and 60% solves, so both p50 and p95 fall inside the
    // solves, well away from the edge between classes.
    for (const auto* group : {&exact, &near_in, &crossing, &crossing_again, &exact})
      round.insert(round.end(), group->begin(), group->end());
  }
  in.priming.push_back(round);
  in.rounds.push_back(std::move(round));
  return in;
}

// ------------------------------------------------------------ wide_hier

constexpr std::size_t kWideProcessors = 256;
constexpr std::size_t kWideSites = 4;
constexpr std::size_t kWidePool = 48;       ///< distinct workloads
constexpr std::size_t kWideCacheCapacity = 8;  ///< < kWidePool: all misses

Inputs build_wide_hier(std::uint64_t seed) {
  Inputs in;
  hcs::Rng rng{seed ^ 0x57494445ULL};
  hcs::ClusteredNetworkOptions sites;
  sites.cluster_count = kWideSites;
  in.directory = std::make_unique<hcs::StaticDirectory>(
      hcs::generate_clustered_network(kWideProcessors, kFabricSeed, sites));
  in.links.emplace(0.0, query_links(*in.directory, 0.0));
  std::vector<Served*> pool;
  for (std::size_t w = 0; w < kWidePool; ++w)
    pool.push_back(&add_served(in, hcs::SchedulerKind::kOpenShop, true, 0.0,
                               mixed(kWideProcessors, rng)));
  in.priming.push_back(pool);
  in.rounds.push_back(std::move(pool));
  return in;
}

// ------------------------------------------------------------- tracing

/// Traced mode only: the server-side steps of one request re-run on the
/// same inputs by the benchmark, each under its own span, mirroring what
/// hcsd did for it (a snapshot only when now_s changes, a solve and an
/// encode only on a cache miss).
struct Replica {
  const hcs::DirectoryService* directory = nullptr;
  std::optional<hcs::NetworkModel> snapshot;
  double snapshot_now = 0.0;
  std::unique_ptr<hcs::Scheduler> max_matching =
      hcs::make_scheduler(hcs::SchedulerKind::kMaxMatching);
  double request_bytes = 0.0;
  double response_bytes = 0.0;
};

void replay_server_steps(Replica& rep, const Served& s,
                         const svc::ScheduleResponse& served, Tracer* tracer,
                         std::uint64_t op) {
  Scoped root(tracer, "service.replica", op);
  std::vector<std::uint8_t> request_bytes;
  {
    Scoped x(tracer, "service.wire.encode_request_us", op);
    request_bytes = svc::encode_schedule_request(s.request);
  }
  rep.request_bytes =
      static_cast<double>(request_bytes.size() + svc::kFrameHeaderBytes);
  std::optional<svc::ScheduleRequest> request;
  {
    Scoped x(tracer, "service.wire.decode_request_us", op);
    request.emplace(svc::decode_schedule_request(request_bytes));
  }
  if (!rep.snapshot || (!rep.directory->time_invariant() &&
                        rep.snapshot_now != request->now_s)) {
    Scoped x(tracer, "netmodel.snapshot_us", op);
    rep.snapshot.emplace(rep.directory->snapshot(request->now_s));
    rep.snapshot_now = request->now_s;
  }
  std::optional<hcs::CommMatrix> comm;
  {
    Scoped x(tracer, "netmodel.cost_matrix_us", op);
    comm.emplace(*rep.snapshot, request->messages);
  }
  {
    Scoped x(tracer, "service.key_build_us", op);
    const svc::ScheduleKey key = svc::make_schedule_key(
        request->kind, request->hierarchical, comm->times(), kQuantum);
    if (key.levels.empty()) throw std::runtime_error("empty schedule key");
  }
  std::vector<std::uint8_t> response_bytes;
  if (!served.cache_hit) {
    std::optional<hcs::Schedule> planned;
    if (request->hierarchical) {
      hcs::Clustering clustering;
      {
        Scoped x(tracer, "netmodel.cluster_detect_us", op);
        clustering = hcs::detect_clusters(*rep.snapshot);
      }
      Scoped x(tracer, "core.solve_us.hierarchical", op);
      hcs::HierarchicalScheduler::Options options;
      options.inner = request->kind;
      options.seed = 1;
      planned.emplace(
          hcs::HierarchicalScheduler{std::move(clustering), options}.schedule(
              *comm));
    } else {
      Scoped x(tracer, "core.solve_us.max_matching", op);
      planned.emplace(rep.max_matching->schedule(*comm));
    }
    svc::ScheduleResponse fresh;
    fresh.completion_s = planned->completion_time();
    fresh.processors = planned->processor_count();
    fresh.events = planned->events();
    Scoped x(tracer, "service.wire.encode_response_us", op);
    response_bytes = svc::encode_schedule_response(fresh);
  } else {
    response_bytes = svc::encode_schedule_response(served);
  }
  rep.response_bytes =
      static_cast<double>(response_bytes.size() + svc::kFrameHeaderBytes);
  Scoped x(tracer, "service.wire.decode_response_us", op);
  if (svc::decode_schedule_response(response_bytes).events.empty())
    throw std::runtime_error("empty decoded response");
}

// ------------------------------------------------------------- clients

struct ClientStats {
  std::uint64_t ops = 0, failed = 0, unexpected = 0, stale = 0;
  std::vector<double> latency_us;
  std::int64_t active_ns = 0;
  std::int64_t cpu_ns = 0;           ///< this thread, exclusions removed
  std::int64_t excluded_cpu_ns = 0;  ///< checker and replica work
  double ratio_sum = 0.0, executed_sum = 0.0;
  std::uint64_t passed = 0;
  double connect_us = 0.0;
  std::uint64_t connects = 0;
  std::exception_ptr error;
};

std::string endpoint_of(const std::string& socket) { return "unix:" + socket; }

void connect(std::optional<svc::ServiceClient>& client,
             const std::string& socket, ClientStats& st, Tracer* tracer,
             std::uint64_t op) {
  client.reset();
  const std::int64_t t0 = now_ns();
  {
    Scoped x(tracer, "service.connect_us", op);
    client.emplace(endpoint_of(socket), kClientTimeoutS);
  }
  st.connect_us += static_cast<double>(now_ns() - t0) / 1e3;
  ++st.connects;
}

/// One closed-loop connection: whole rounds until the deadline passes.
void client_loop(std::optional<svc::ServiceClient>& client,
                 const std::string& socket, const std::vector<Served*>& round,
                 bool reconnect_each_round, std::int64_t deadline,
                 Tracer* tracer, Replica* replica, ClientStats& st) {
  try {
    const std::int64_t start = now_ns();
    const std::int64_t cpu_start = thread_cpu_ns();
    std::int64_t excluded_ns = 0;
    std::uint64_t op = tracer ? std::uint64_t{tracer->thread_id()} << 40 : 0;
    for (bool first = true;; first = false) {
      if (!first && reconnect_each_round)
        connect(client, socket, st, tracer, op);
      for (Served* s : round) {
        const std::int64_t t0 = now_ns();
        svc::ScheduleResponse response;
        {
          Scoped x(tracer, "service.round_trip_us", op);
          response = client->schedule(s->request);
        }
        const std::int64_t t1 = now_ns();
        st.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        ++st.ops;

        // All threads share one CPU: let the worker that just answered
        // take its own end-of-request timestamp before the checker runs,
        // so hcsd's latency histogram does not absorb the checker.
        sched_yield();
        const std::int64_t c0 = thread_cpu_ns();
        const std::optional<std::string>& verdict = check_served(*s, response);
        if (verdict) {
          ++st.failed;
          if (response.cache_hit && s->stale_by_design) {
            ++st.stale;
          } else {
            ++st.unexpected;
            std::fprintf(stderr, "hcsd response failed the check: %s\n",
                         verdict->c_str());
          }
        } else {
          st.ratio_sum += response.completion_s / s->lower_bound;
          st.executed_sum += s->executed_s / s->lower_bound;
          ++st.passed;
        }
        if (replica != nullptr)
          replay_server_steps(*replica, *s, response, tracer, op);
        st.excluded_cpu_ns += thread_cpu_ns() - c0;
        excluded_ns += now_ns() - t1;
        ++op;
      }
      if (now_ns() >= deadline) break;
    }
    st.active_ns = now_ns() - start - excluded_ns;
    st.cpu_ns = thread_cpu_ns() - cpu_start - st.excluded_cpu_ns;
  } catch (...) {
    st.error = std::current_exception();
  }
}

// -------------------------------------------------------------- scrape

/// Counter, gauge or histogram field from the JSON admin scrape.
double scraped(const std::string& body, const std::string& name,
               const char* field = nullptr) {
  std::size_t pos = body.find("\"" + name + "\": ");
  if (pos == std::string::npos) return 0.0;
  pos += name.size() + 4;
  if (field != nullptr) {
    pos = body.find(std::string("\"") + field + "\": ", pos);
    if (pos == std::string::npos) return 0.0;
    pos += std::strlen(field) + 4;
  }
  return std::strtod(body.c_str() + pos, nullptr);
}

/// The admin scrape once hcsd has recorded `requests` requests: a worker
/// records a request after writing its response, so a scrape taken right
/// after the last reply can miss it.
std::string settled_scrape(svc::ServiceClient& admin, std::size_t requests) {
  for (int attempt = 0;; ++attempt) {
    std::string body = admin.scrape_metrics();
    if (scraped(body, "service.requests") >= static_cast<double>(requests))
      return body;
    if (attempt == 5000)
      throw std::runtime_error("hcsd never recorded " +
                               std::to_string(requests) + " requests");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t open_fds() {
  std::size_t count = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (const dirent* entry = ::readdir(dir))
      if (entry->d_name[0] != '.') ++count;
    ::closedir(dir);
    --count;  // the descriptor opendir itself holds
  }
  return count;
}

/// hcsd leaks the descriptor of every closed connection (ROADMAP open
/// item 3), and warm_hits reconnects about a hundred times a run; lift
/// this process's soft descriptor limit to its hard limit so the leak
/// is measured rather than fatal.
void raise_fd_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

// ------------------------------------------------------------ workload

Tally run_service(const RunOptions& options, bool traced, const Spec& spec,
                  const std::string& name) {
  raise_fd_limit();
  Tally tally;
  const std::string socket = options.scratch_dir + "/" + name + "-" +
                             std::to_string(::getpid()) + ".sock";
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (std::size_t c = 0; c < spec.connections; ++c)
    tracers.push_back(traced ? std::make_unique<Tracer>(
                                   static_cast<std::uint32_t>(c + 1))
                             : nullptr);
  std::vector<ClientStats> stats(spec.connections);

  // Set-up, repeated: inputs, daemon start, connections, cache priming.
  std::optional<Inputs> inputs;
  std::unique_ptr<svc::ScheduleServer> server;
  std::vector<std::optional<svc::ServiceClient>> clients(spec.connections);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    for (auto& client : clients) client.reset();
    server.reset();
    inputs.reset();
    const std::int64_t t0 = now_ns();
    inputs.emplace(spec.build(options.seed));
    svc::ServerOptions server_options;
    server_options.socket_path = socket;
    server_options.workers = spec.connections;
    server_options.cache = spec.cache;
    server_options.quantum = kQuantum;
    server = std::make_unique<svc::ScheduleServer>(*inputs->directory,
                                                   server_options);
    server->start();
    for (std::size_t c = 0; c < spec.connections; ++c) {
      connect(clients[c], socket, stats[c], tracers[c].get(), 0);
      for (Served* s : inputs->priming[c])
        (void)clients[c]->schedule(s->request);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  tally.setup_s = setup_median(setup_s);

  std::optional<svc::ServiceClient> admin;
  admin.emplace(endpoint_of(socket), kClientTimeoutS);
  std::size_t primed = 0;
  for (const auto& sequence : inputs->priming) primed += sequence.size();
  const std::string before = settled_scrape(*admin, primed);

  std::vector<std::unique_ptr<Replica>> replicas(spec.connections);
  if (traced)
    for (auto& replica : replicas) {
      replica = std::make_unique<Replica>();
      replica->directory = inputs->directory.get();
    }
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < spec.connections; ++c)
    threads.emplace_back(client_loop, std::ref(clients[c]), std::cref(socket),
                         std::cref(inputs->rounds[c]),
                         spec.reconnect_each_round, deadline,
                         tracers[c].get(), replicas[c].get(),
                         std::ref(stats[c]));
  client_loop(clients[0], socket, inputs->rounds[0], spec.reconnect_each_round,
              deadline, tracers[0].get(), replicas[0].get(), stats[0]);
  for (std::thread& t : threads) t.join();
  const std::int64_t cpu1 = process_cpu_ns();
  for (const ClientStats& st : stats)
    if (st.error) std::rethrow_exception(st.error);

  std::size_t attempted = 0;
  for (const ClientStats& st : stats) attempted += st.ops;
  const std::string after = settled_scrape(*admin, primed + attempted);
  for (auto& client : clients) client.reset();
  admin.reset();
  // Let hcsd's readers see every hang-up before counting descriptors.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const std::size_t fds = open_fds();
  server->stop();

  double excluded_cpu = 0.0, client_cpu = 0.0, connect_us = 0.0;
  std::uint64_t connects = 0, stale = 0;
  for (const ClientStats& st : stats) {
    tally.attempted += st.ops;
    tally.failed += st.failed;
    tally.unexpected += st.unexpected;
    stale += st.stale;
    tally.latency_us.push_back(st.latency_us);
    tally.ops_per_s += static_cast<double>(st.ops) /
                       (static_cast<double>(st.active_ns) / 1e9);
    excluded_cpu += static_cast<double>(st.excluded_cpu_ns);
    client_cpu += static_cast<double>(st.cpu_ns);
    tally.ratio_sum += st.ratio_sum;
    tally.executed_sum += st.executed_sum;
    tally.passed += st.passed;
    connect_us += st.connect_us;
    connects += st.connects;
  }
  tally.cpu_ns = static_cast<double>(cpu1 - cpu0) - excluded_cpu;
  tally.peak_rss_mib = peak_rss_mib();

  const auto delta = [&](const char* metric, const char* field = nullptr) {
    return scraped(after, metric, field) - scraped(before, metric, field);
  };
  const double ops = static_cast<double>(tally.attempted);
  auto& layer = tally.layer;
  layer["service.cache.hits"] = delta("service.cache.hits");
  layer["service.cache.misses"] = delta("service.cache.misses");
  layer["service.cache.evictions"] = delta("service.cache.evictions");
  layer["service.memo_hits"] = delta("service.memo_hit");
  layer["service.snapshot_builds"] = delta("service.snapshot_builds");
  layer["service.cache.hit_rate"] =
      delta("service.cache.hits") / delta("service.requests");
  layer["service.cache.stale_hits"] = static_cast<double>(stale);
  const double served_count = delta("service.latency_s", "count");
  layer["service.server_us"] =
      served_count > 0 ? 1e6 * delta("service.latency_s", "sum") / served_count
                       : 0.0;
  const double solves = delta("service.solve_s", "count");
  layer["service.solve_us"] =
      solves > 0 ? 1e6 * delta("service.solve_s", "sum") / solves : 0.0;
  double latency_sum = 0.0;
  for (const auto& stream : tally.latency_us)
    for (const double us : stream) latency_sum += us;
  layer["service.round_trip_us"] = latency_sum / ops;
  layer["service.transport_us"] =
      layer["service.round_trip_us"] - layer["service.server_us"];
  layer["service.client_cpu_us_per_op"] = client_cpu / 1e3 / ops;
  layer["service.server_cpu_us_per_op"] =
      (tally.cpu_ns - client_cpu) / 1e3 / ops;
  layer["service.connect_us"] =
      connects > 0 ? connect_us / static_cast<double>(connects) : 0.0;
  layer["service.open_fds_after_run"] = static_cast<double>(fds);
  if (traced) {
    layer["service.wire.request_bytes"] = replicas[0]->request_bytes;
    layer["service.wire.response_bytes"] = replicas[0]->response_bytes;
  }
  for (auto& tracer : tracers)
    if (tracer) tally.tracers.push_back(std::move(tracer));
  return tally;
}

}  // namespace

Tally run_warm_hits(const RunOptions& options, bool traced) {
  Spec spec;
  spec.connections = kWarmConnections;
  spec.reconnect_each_round = true;
  spec.build = build_warm_hits;
  return run_service(options, traced, spec, "warm_hits");
}

Tally run_drift_mix(const RunOptions& options, bool traced) {
  Spec spec;
  // One shard, so eviction order is a plain LRU over the request trace
  // and every round meets the same hits, misses and stale hits.
  spec.cache.shards = 1;
  spec.cache.capacity = kDriftCacheCapacity;
  spec.build = build_drift_mix;
  return run_service(options, traced, spec, "drift_mix");
}

Tally run_wide_hier(const RunOptions& options, bool traced) {
  Spec spec;
  spec.cache.shards = 1;
  spec.cache.capacity = kWideCacheCapacity;
  spec.build = build_wide_hier;
  return run_service(options, traced, spec, "wide_hier");
}

}  // namespace hcsbench
