// Equivalence of the request-path kernels with the straightforward code
// they replaced, kept here as references: the libm-free log-level
// quantizer against llround(log(max(x, 1e-12)) / q), the raw-array cost
// kernel against the per-pair LinkParams::transfer_time loop, and the
// hierarchical scheduler's compact-key start order against copying and
// sorting whole events. Every comparison is bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "core/scheduler.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/generator.hpp"
#include "netmodel/gusto.hpp"
#include "util/error.hpp"
#include "workload/generators.hpp"

namespace hcs {
namespace {

// --- references -----------------------------------------------------------

std::int32_t reference_level(double x, double quantum) {
  return static_cast<std::int32_t>(
      std::llround(std::log(std::max(x, 1e-12)) / quantum));
}

Matrix<double> reference_costs(const NetworkModel& network,
                               const Matrix<std::uint64_t>& bytes) {
  const std::size_t n = network.processor_count();
  Matrix<double> times(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) times(i, j) = network.link(i, j).transfer_time(bytes(i, j));
  return times;
}

std::vector<std::pair<std::size_t, std::size_t>> reference_order(
    const Schedule& schedule) {
  std::vector<ScheduledEvent> events = schedule.events();
  std::sort(events.begin(), events.end(),
            [](const ScheduledEvent& a, const ScheduledEvent& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(events.size());
  for (const ScheduledEvent& e : events) order.emplace_back(e.src, e.dst);
  return order;
}

/// Bit-level equality: distinguishes -0.0 from 0.0 and compares NaNs.
bool same_bits(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * a.data().size()) == 0;
}

constexpr double kQuanta[] = {0.1, 0.25, 0.5, 1.0};

// --- quantize_log_level ---------------------------------------------------

TEST(QuantizeLogLevel, MatchesLibmOnRandomValues) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> log_x(std::log(1e-13),
                                               std::log(1e7));
  std::uniform_real_distribution<double> linear_x(0.0, 1e7);
  for (const double q : kQuanta) {
    for (int k = 0; k < 200000; ++k) {
      const double x = (k % 4 == 3) ? linear_x(rng) : std::exp(log_x(rng));
      ASSERT_EQ(quantize_log_level(x, q), reference_level(x, q))
          << "x = " << x << ", q = " << q;
    }
  }
}

TEST(QuantizeLogLevel, MatchesLibmAtEveryLevelBoundary) {
  // Every boundary exp((k + 1/2) q) over [1e-13, 1e7], and the 3 doubles on
  // either side: where the fast path must hand over to the exact one.
  std::size_t checked = 0;
  for (const double q : kQuanta) {
    const auto first = static_cast<long>(std::floor(std::log(1e-13) / q)) - 1;
    const auto last = static_cast<long>(std::ceil(std::log(1e7) / q)) + 1;
    for (long k = first; k <= last; ++k) {
      double x = std::exp((static_cast<double>(k) + 0.5) * q);
      for (int step = 0; step < 3; ++step) x = std::nextafter(x, 0.0);
      for (int step = -3; step <= 3; ++step, x = std::nextafter(x, 1e300)) {
        ASSERT_EQ(quantize_log_level(x, q), reference_level(x, q))
            << "x = " << x << ", q = " << q << ", boundary " << k;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 4000u);
}

TEST(QuantizeLogLevel, MatchesLibmOnEdgeInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {
      0.0,   -0.0,  -1.0,   1e-300, 5e-324, 1e-12,
      1e-13, 1.0,   2.0,    0.5,    std::sqrt(2.0), std::sqrt(0.5),
      1e300, std::numeric_limits<double>::max(), inf};
  for (const double q : {0.1, 0.25, 0.5, 1.0, 7.0, 1e-3, 1e-7, 1e9})
    for (const double x : xs)
      EXPECT_EQ(quantize_log_level(x, q), reference_level(x, q))
          << "x = " << x << ", q = " << q;
}

TEST(QuantizeLogLevel, ArrayFormMatchesLibmElementwise) {
  // Random values, every boundary +-3 ulps and the edge inputs, in arrays
  // of every length up to a few vector widths and one long one.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> log_x(std::log(1e-13),
                                               std::log(1e7));
  std::vector<double> xs;
  for (int k = 0; k < 20000; ++k) xs.push_back(std::exp(log_x(rng)));
  for (long k = -300; k <= 170; ++k) {
    double x = std::exp((static_cast<double>(k) + 0.5) * 0.1);
    for (int step = 0; step < 3; ++step) x = std::nextafter(x, 0.0);
    for (int step = -3; step <= 3; ++step, x = std::nextafter(x, 1e300))
      xs.push_back(x);
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {0.0, -0.0, -1.0, 1e-300, 1e300, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()})
    xs.push_back(x);
  std::shuffle(xs.begin(), xs.end(), rng);
  for (const double q : {0.1, 0.25, 0.5, 1.0, 1e-7}) {
    for (std::size_t n = 0; n <= 13; ++n) {
      std::vector<std::int32_t> out(n);
      quantize_log_levels(std::span(xs).first(n), q, out);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], reference_level(xs[i], q)) << "n = " << n;
    }
    std::vector<std::int32_t> out(xs.size());
    quantize_log_levels(xs, q, out);
    for (std::size_t i = 0; i < xs.size(); ++i)
      ASSERT_EQ(out[i], reference_level(xs[i], q))
          << "x = " << xs[i] << ", q = " << q;
  }
  std::vector<std::int32_t> short_out(3);
  EXPECT_THROW(quantize_log_levels(xs, 0.25, short_out), InputError);
}

// --- cost kernel ----------------------------------------------------------

Matrix<std::uint64_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Matrix<std::uint64_t> bytes(n, n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      // Every fourth message is empty: a zero-byte pair costs its start-up.
      bytes(i, j) = rng() % 4 == 0 ? 0 : rng() % (std::uint64_t{1} << 30);
  return bytes;
}

TEST(CostMatrix, MatchesPerPairTransferTime) {
  std::vector<NetworkModel> networks = {gusto::network(),
                                        generate_network(33, 5)};
  ClusteredNetworkOptions sites;
  sites.cluster_count = 4;
  networks.push_back(generate_clustered_network(64, 9, sites));
  Matrix<double> startup(3, 3, 0.25), bandwidth(3, 3, 1000.0);
  bandwidth(1, 1) = 0.0;  // the diagonal is never priced
  startup(2, 2) = 7.0;
  networks.emplace_back(startup, bandwidth);

  std::uint64_t seed = 1;
  for (const NetworkModel& network : networks) {
    const std::size_t n = network.processor_count();
    const Matrix<std::uint64_t> bytes = random_bytes(n, seed++);
    const Matrix<double> expected = reference_costs(network, bytes);
    EXPECT_TRUE(same_bits(network.cost_matrix(bytes), expected));
    EXPECT_TRUE(same_bits(CommMatrix(network, bytes).times(), expected));
    EXPECT_TRUE(same_bits(CommMatrix(expected).times(), expected));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(expected(i, i), 0.0);

    // Masked and uniform-payload kernels against the same loop.
    Matrix<unsigned char> mask(n, n, 0);
    Matrix<double> masked(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if ((i + 2 * j) % 3 != 0) {
          mask(i, j) = 1;
          masked(i, j) = expected(i, j);
        }
    EXPECT_TRUE(same_bits(network.cost_matrix(bytes, mask), masked));
    const Matrix<std::uint64_t> uniform(n, n, 4096);
    EXPECT_TRUE(same_bits(network.cost_matrix(4096),
                          reference_costs(network, uniform)));
  }
}

TEST(CostMatrix, ParametersTheKernelTrustsAreValidatedOnEntry) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(NetworkModel(3, LinkParams{0.0, 0.0}), InputError);
  EXPECT_THROW(NetworkModel(3, LinkParams{-1.0, 1.0}), InputError);
  EXPECT_THROW(NetworkModel(3, LinkParams{0.0, nan}), InputError);
  EXPECT_NO_THROW(NetworkModel(1, LinkParams{0.0, 0.0}));
  Matrix<double> startup(2, 2, 0.0), bandwidth(2, 2, 1.0);
  startup(0, 1) = nan;
  EXPECT_THROW(NetworkModel(startup, bandwidth), InputError);
  NetworkModel network(2, LinkParams{0.0, 1.0});
  EXPECT_THROW(network.set_link(0, 1, {0.0, nan}), InputError);
  EXPECT_THROW(network.set_link(0, 1, {nan, 1.0}), InputError);
  EXPECT_NO_THROW(network.set_link(0, 0, {0.0, 0.0}));
}

// --- hierarchical start order ---------------------------------------------

TEST(HierarchicalEventOrder, MatchesCopyAndSort) {
  const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kOpenShop, SchedulerKind::kGreedy,
      SchedulerKind::kMaxMatching, SchedulerKind::kBaseline};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::size_t n = 3 + seed % 17;
    std::mt19937_64 rng(seed);

    // A paper scheduler's schedule: baseline and matching rounds start
    // many events at the same instant.
    const CommMatrix comm{generate_network(n, seed),
                          mixed_messages(n, seed, {1024, 1024 * 1024})};
    const Schedule solved =
        make_scheduler(kinds[seed % kinds.size()], seed)->schedule(comm);
    ASSERT_EQ(detail::event_order(solved), reference_order(solved));

    // Heavily tied starts in scrambled order, repeated pairs included.
    std::vector<ScheduledEvent> events;
    for (std::size_t e = 0; e < 4 * n; ++e) {
      const double start = static_cast<double>(rng() % 3);
      events.push_back({rng() % n, rng() % n, start, start + 1.0});
    }
    const Schedule tied{n, std::move(events)};
    ASSERT_EQ(detail::event_order(tied), reference_order(tied));
  }
}

}  // namespace
}  // namespace hcs
