#include "runtime/collective_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/comm_matrix.hpp"
#include "core/scheduler.hpp"
#include "util/error.hpp"
#include "workload/generators.hpp"

namespace hcs {

ExchangeResult execute_exchange(const DirectoryService& directory,
                                const Schedule& schedule,
                                const Matrix<Payload>& payloads) {
  const std::size_t n = schedule.processor_count();
  if (payloads.rows() != n || payloads.cols() != n)
    throw InputError("execute_exchange: payload matrix size mismatch");
  check(directory.processor_count() == n,
        "execute_exchange: directory size mismatch");

  // Per-process programs: sends in the schedule's per-sender order,
  // receives in its per-receiver order. Interleave them send-ops first;
  // the cluster splits per port anyway.
  const std::vector<ScheduledEvent>& events = schedule.events();
  const PortOrder by_sender{schedule, PortSide::kSend};
  const PortOrder by_receiver{schedule, PortSide::kReceive};
  std::vector<std::vector<Op>> programs(n);
  for (std::size_t p = 0; p < n; ++p) {
    for (const std::size_t e : by_sender[p])
      programs[p].push_back(
          send_op(events[e].dst, payloads(events[e].src, events[e].dst)));
    for (const std::size_t e : by_receiver[p])
      programs[p].push_back(recv_op(events[e].src));
  }

  const VirtualCluster cluster{directory};
  const ClusterResult run = cluster.run(std::move(programs));

  ExchangeResult result;
  result.completion_time = run.completion_time;
  result.delivered = Matrix<Payload>(n, n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    const std::span<const std::size_t> receives = by_receiver[dst];
    check(run.received[dst].size() == receives.size(),
          "execute_exchange: delivery count mismatch");
    for (std::size_t k = 0; k < receives.size(); ++k)
      result.delivered(events[receives[k]].src, dst) = run.received[dst][k];
  }
  return result;
}

// ---------------------------------------------------------------------------
// DistributedMatrix
// ---------------------------------------------------------------------------

namespace {

/// Even block split: [first, last) of `total` items for owner p of
/// `parts`, first `total % parts` owners one larger.
std::pair<std::size_t, std::size_t> block_range(std::size_t total,
                                                std::size_t parts,
                                                std::size_t p) {
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  const std::size_t first = p * base + std::min(p, extra);
  const std::size_t size = base + (p < extra ? 1 : 0);
  return {first, first + size};
}

}  // namespace

DistributedMatrix::DistributedMatrix(std::size_t processor_count,
                                     std::size_t rows, std::size_t cols)
    : owners_(processor_count), rows_(rows), cols_(cols),
      data_(rows * cols, 0.0) {
  if (processor_count == 0 || rows == 0 || cols == 0)
    throw InputError("DistributedMatrix: degenerate shape");
}

double DistributedMatrix::element_value(std::size_t row, std::size_t col) {
  return static_cast<double>(row) * 1e6 + static_cast<double>(col) + 0.25;
}

void DistributedMatrix::fill_with_coordinates() {
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      data_[r * cols_ + c] = element_value(r, c);
}

std::pair<std::size_t, std::size_t> DistributedMatrix::row_range(
    std::size_t p) const {
  check(p < owners_, "DistributedMatrix: owner out of range");
  return block_range(rows_, owners_, p);
}

std::pair<std::size_t, std::size_t> DistributedMatrix::col_range(
    std::size_t p) const {
  check(p < owners_, "DistributedMatrix: owner out of range");
  return block_range(cols_, owners_, p);
}

double DistributedMatrix::at(std::size_t row, std::size_t col) const {
  check(row < rows_ && col < cols_, "DistributedMatrix: index out of range");
  return data_[row * cols_ + col];
}

void DistributedMatrix::set(std::size_t row, std::size_t col, double value) {
  check(row < rows_ && col < cols_, "DistributedMatrix: index out of range");
  data_[row * cols_ + col] = value;
}

// ---------------------------------------------------------------------------
// Distributed transpose
// ---------------------------------------------------------------------------

namespace {

/// Serializes the (rows of i) x (cols of j) intersection block,
/// row-major, doubles byte-copied.
Payload pack_block(const DistributedMatrix& matrix, std::size_t i,
                   std::size_t j) {
  const auto [r0, r1] = matrix.row_range(i);
  const auto [c0, c1] = matrix.col_range(j);
  Payload payload;
  payload.resize((r1 - r0) * (c1 - c0) * sizeof(double));
  std::size_t offset = 0;
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = c0; c < c1; ++c) {
      const double value = matrix.at(r, c);
      std::memcpy(payload.data() + offset, &value, sizeof(double));
      offset += sizeof(double);
    }
  return payload;
}

/// Writes a received block into the destination's column-block store.
void unpack_block(const Payload& payload, const DistributedMatrix& shape,
                  std::size_t i, std::size_t j, DistributedMatrix& out) {
  const auto [r0, r1] = shape.row_range(i);
  const auto [c0, c1] = shape.col_range(j);
  check(payload.size() == (r1 - r0) * (c1 - c0) * sizeof(double),
        "unpack_block: payload size mismatch");
  std::size_t offset = 0;
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = c0; c < c1; ++c) {
      double value = 0.0;
      std::memcpy(&value, payload.data() + offset, sizeof(double));
      offset += sizeof(double);
      out.set(r, c, value);
    }
}

}  // namespace

TransposeRunResult run_distributed_transpose(const DirectoryService& directory,
                                             const Scheduler& scheduler,
                                             std::size_t rows,
                                             std::size_t cols) {
  const std::size_t n = directory.processor_count();
  DistributedMatrix source{n, rows, cols};
  source.fill_with_coordinates();

  // Serialize every off-diagonal intersection block; the diagonal block
  // stays local.
  Matrix<Payload> payloads(n, n);
  MessageMatrix sizes(n, n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      payloads(i, j) = pack_block(source, i, j);
      sizes(i, j) = payloads(i, j).size();
    }

  const CommMatrix comm{directory.snapshot(0.0), sizes};
  const Schedule schedule = scheduler.schedule(comm);
  schedule.validate(comm);
  const ExchangeResult exchange =
      execute_exchange(directory, schedule, payloads);

  // Reassemble at the receivers and verify every element.
  DistributedMatrix reassembled{n, rows, cols};
  TransposeRunResult result;
  result.completion_time = exchange.completion_time;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) {
        // Local copy of the diagonal block.
        const auto [r0, r1] = source.row_range(i);
        const auto [c0, c1] = source.col_range(j);
        for (std::size_t r = r0; r < r1; ++r)
          for (std::size_t c = c0; c < c1; ++c)
            reassembled.set(r, c, source.at(r, c));
      } else {
        unpack_block(exchange.delivered(i, j), source, i, j, reassembled);
        result.elements_moved += exchange.delivered(i, j).size() / sizeof(double);
      }
    }
  }
  result.verified = true;
  for (std::size_t p = 0; p < n && result.verified; ++p) {
    const auto [c0, c1] = source.col_range(p);
    for (std::size_t c = c0; c < c1 && result.verified; ++c)
      for (std::size_t r = 0; r < rows && result.verified; ++r)
        if (reassembled.at(r, c) != DistributedMatrix::element_value(r, c))
          result.verified = false;
  }
  return result;
}

}  // namespace hcs
