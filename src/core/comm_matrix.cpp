#include "core/comm_matrix.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hcs {

CommMatrix::CommMatrix(Matrix<double> times) : times_(std::move(times)) {
  if (!times_.square() || times_.empty())
    throw InputError("CommMatrix: time matrix must be square and non-empty");
  times_.for_each([](std::size_t r, std::size_t c, double& t) {
    if (t < 0.0) throw InputError("CommMatrix: negative event time");
    if (r == c && t != 0.0)
      throw InputError("CommMatrix: diagonal must be zero");
  });
}

CommMatrix::CommMatrix(const NetworkModel& network,
                       const MessageMatrix& messages) {
  if (messages.rows() != network.processor_count() ||
      messages.cols() != network.processor_count())
    throw InputError("CommMatrix: message matrix does not match network size");
  // The kernel's entries are T + m/B under NetworkModel's parameter
  // invariants (T >= 0, off-diagonal B > 0) with a zero diagonal, so the
  // per-entry checks of the explicit-matrix constructor cannot fail here.
  times_ = network.cost_matrix(messages);
  if (times_.empty())
    throw InputError("CommMatrix: time matrix must be square and non-empty");
}

double CommMatrix::lower_bound() const {
  double bound = 0.0;
  for (std::size_t p = 0; p < processor_count(); ++p)
    bound = std::max({bound, send_total(p), recv_total(p)});
  return bound;
}

}  // namespace hcs
