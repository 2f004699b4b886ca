#include "netmodel/network_model.hpp"

namespace hcs {
namespace {

// The parameter invariants every cost kernel below relies on instead of
// re-checking per pair: start-ups are >= 0 everywhere and off-diagonal
// bandwidths > 0 (both false for NaN). With them T + m/B is never negative
// or NaN, which is what LinkParams::transfer_time would otherwise verify.
void check_startup(double t) {
  if (!(t >= 0.0)) throw InputError("NetworkModel: negative startup");
}
void check_bandwidth(double b) {
  if (!(b > 0.0))
    throw InputError("NetworkModel: off-diagonal bandwidth must be positive");
}

/// T + m/B over the raw row-major parameter arrays for every off-diagonal
/// entry k = i * n + j that `kept(k)`; zero elsewhere. The kernel of every
/// cost_matrix overload.
template <typename BytesAt, typename Kept>
Matrix<double> transfer_times(const Matrix<double>& startup,
                              const Matrix<double>& bandwidth,
                              BytesAt bytes_at, Kept kept) {
  const std::size_t n = startup.rows();
  Matrix<double> times(n, n, 0.0);
  const double* t = startup.data().data();
  const double* b = bandwidth.data().data();
  double* out = times.mutable_data().data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = i * n + j;
      if (i != j && kept(k)) out[k] = t[k] + bytes_at(k) / b[k];
    }
  return times;
}

}  // namespace

NetworkModel::NetworkModel(std::size_t processor_count, LinkParams params)
    : startup_s_(processor_count, processor_count, params.startup_s),
      bandwidth_Bps_(processor_count, processor_count, params.bandwidth_Bps) {
  check_startup(params.startup_s);
  if (processor_count > 1) check_bandwidth(params.bandwidth_Bps);
}

NetworkModel::NetworkModel(Matrix<double> startup_s,
                           Matrix<double> bandwidth_Bps)
    : startup_s_(std::move(startup_s)),
      bandwidth_Bps_(std::move(bandwidth_Bps)) {
  if (!startup_s_.square() || !bandwidth_Bps_.square() ||
      startup_s_.rows() != bandwidth_Bps_.rows())
    throw InputError("NetworkModel: parameter matrices must be square and equal-sized");
  bandwidth_Bps_.for_each([](std::size_t r, std::size_t c, double& b) {
    if (r != c) check_bandwidth(b);
  });
  startup_s_.for_each(
      [](std::size_t, std::size_t, double& t) { check_startup(t); });
}

LinkParams NetworkModel::link(std::size_t src, std::size_t dst) const {
  return {startup_s_(src, dst), bandwidth_Bps_(src, dst)};
}

void NetworkModel::set_link(std::size_t src, std::size_t dst, LinkParams params) {
  if (src != dst) check_bandwidth(params.bandwidth_Bps);
  check_startup(params.startup_s);
  startup_s_(src, dst) = params.startup_s;
  bandwidth_Bps_(src, dst) = params.bandwidth_Bps;
}

double NetworkModel::cost(std::size_t src, std::size_t dst,
                          std::uint64_t bytes) const {
  check(src < processor_count() && dst < processor_count(),
        "NetworkModel: processor index out of range");
  if (src == dst) return 0.0;
  return link(src, dst).transfer_time(bytes);
}

Matrix<double> NetworkModel::cost_matrix(
    const Matrix<std::uint64_t>& bytes) const {
  const std::size_t n = processor_count();
  if (bytes.rows() != n || bytes.cols() != n)
    throw InputError("NetworkModel: byte matrix does not match network size");
  const std::uint64_t* m = bytes.data().data();
  return transfer_times(
      startup_s_, bandwidth_Bps_,
      [m](std::size_t k) { return static_cast<double>(m[k]); },
      [](std::size_t) { return true; });
}

Matrix<double> NetworkModel::cost_matrix(const Matrix<std::uint64_t>& bytes,
                                         const Matrix<unsigned char>& mask) const {
  const std::size_t n = processor_count();
  if (bytes.rows() != n || bytes.cols() != n || mask.rows() != n ||
      mask.cols() != n)
    throw InputError("NetworkModel: byte/mask matrices do not match network size");
  const std::uint64_t* m = bytes.data().data();
  const unsigned char* keep = mask.data().data();
  return transfer_times(
      startup_s_, bandwidth_Bps_,
      [m](std::size_t k) { return static_cast<double>(m[k]); },
      [keep](std::size_t k) { return keep[k] != 0; });
}

Matrix<double> NetworkModel::cost_matrix(std::uint64_t bytes) const {
  const auto m = static_cast<double>(bytes);
  return transfer_times(
      startup_s_, bandwidth_Bps_, [m](std::size_t) { return m; },
      [](std::size_t) { return true; });
}

bool NetworkModel::symmetric() const {
  const std::size_t n = processor_count();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (startup_s_(i, j) != startup_s_(j, i) ||
          bandwidth_Bps_(i, j) != bandwidth_Bps_(j, i))
        return false;
  return true;
}

}  // namespace hcs
