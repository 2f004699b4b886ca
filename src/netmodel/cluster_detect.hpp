// Logical homogeneous cluster detection over the directory's cost
// structure.
//
// Wide-area heterogeneous networks are not flat: nodes group into sites
// whose internal links are orders of magnitude faster than the long-haul
// links between them (the paper's Figure 1 topology, GUSTO's five sites).
// Following Estefanel & Mounié ("Identifying Logical Homogeneous Clusters
// for Efficient Wide-area Communications", PAPERS.md), this module
// recovers that structure from performance measurements alone: no
// topology input, only the (T_ij, B_ij) pairs a DirectoryService
// advertises.
//
// Algorithm: each unordered node pair is reduced to quantized log-scale
// levels of its start-up cost and bandwidth (worst direction of each, so
// asymmetric links cluster conservatively). Agglomerative complete-
// linkage merging then grows clusters in ascending order of an effective
// link cost, under a homogeneity band: a merge is allowed only while
// every internal pair of the merged cluster stays within `tolerance`
// (multiplicative, per parameter) of the fastest internal pair.
// Quantization makes detection robust to measurement jitter below the
// bucket width; the band keeps a LAN-speed cluster from ever absorbing a
// WAN-separated node, because the merged cluster would contain both LAN-
// and WAN-level pairs. Ties are broken toward lower cluster ids, so the
// result is a pure function of the input — invariant under re-detection
// and equivariant under node relabeling.
//
// Degenerate outcomes are well-defined: a flat (homogeneous) network
// collapses to one cluster — callers fall back to the flat scheduling
// path — and a network with no homogeneous pairs stays all singletons.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netmodel/directory.hpp"
#include "netmodel/network_model.hpp"

namespace hcs {

namespace detail {
/// The defining expression of quantize_log_level,
/// llround(ln(max(x, 1e-12)) / quantum), evaluated with libm.
[[nodiscard]] std::int32_t quantize_log_level_exact(double x, double quantum);
}  // namespace detail

/// Quantized log-scale level of a positive quantity: round(ln(x) /
/// quantum). Two values land in the same level when they differ by less
/// than a factor of roughly exp(quantum / 2) — the robustness-to-jitter
/// primitive both cluster detection and the schedule cache's cost-matrix
/// signatures (src/service) are built on. Values below a picosecond are
/// clamped (a zero start-up would otherwise map to -inf).
///
/// Always equal to detail::quantize_log_level_exact, but a key build calls
/// it P^2 times, so it first tries a libm-free logarithm with one division
/// and no data-dependent branch: x = m * 2^e with m in [1/sqrt 2, sqrt 2),
/// ln m = 2 atanh(s) for s = (m - 1) / (m + 1), |s| <= 0.1716, summed to
/// the s^5 term. The truncation error is at most 2 s^7 / (7 (1 - s^2))
/// < 1.29e-6, and the series' own rounding is below 1e-15. Every other
/// rounding — e ln 2 and the sum, the shared reciprocal
/// 1 / ((m + 1) quantum), libm's log (< 1 ulp), the reference's division
/// and the boundary test itself — stays under 20 ulp of |ln x|. When ln x
/// lies farther than these bounds from a rounding boundary
/// (k + 1/2) quantum, both evaluations round to the same k. Otherwise —
/// about one value in 10^5 at quantum 0.25 — and for non-finite x or
/// quantum <= 2^-20, the exact expression decides.
[[nodiscard]] inline std::int32_t quantize_log_level(double x,
                                                     double quantum) {
  constexpr double kLn2 = 0.69314718055994530942;
  constexpr std::uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDULL;  // 1/sqrt 2
  constexpr double kSeriesError = 1.3e-6;   // truncation + series rounding
  constexpr double kRoundToInt = 0x1.8p52;  // (y + c) - c rounds to nearest
  // |ln x| <= 710 and quantum > 2^-20 keep |ln x / quantum| < 2^30: k fits
  // an int32 and the round-to-nearest trick holds.
  if (quantum > 0x1p-20) {
    // Equal to std::max(x, 1e-12) except for NaN, which x - x below
    // sends to the exact path along with +-inf.
    const double clamped = x > 1e-12 ? x : 1e-12;
    // Offsetting the bits by those of 1/sqrt 2 moves the exponent
    // boundary to the mantissa range wanted, exactly.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(clamped);
    const std::uint64_t offset = bits - kSqrtHalfBits;
    const auto e = static_cast<double>(static_cast<std::int64_t>(offset) >> 52);
    const double m =
        std::bit_cast<double>(bits - (offset & 0xFFF0000000000000ULL));
    const double r = 1.0 / ((m + 1.0) * quantum);
    const double s = (m - 1.0) * r * quantum;  // m - 1 is exact
    const double s2 = s * s;
    const double ln_m = 2.0 * s * (1.0 + s2 * (1.0 / 3 + s2 * (1.0 / 5)));
    const double ln_x = e * kLn2 + ln_m + (x - x);
    const double k = (ln_x * (r * (m + 1.0)) + kRoundToInt) - kRoundToInt;
    // Distance from ln x to the boundary, in ln units, against the bound.
    if (std::abs(ln_x - k * quantum) + kSeriesError +
            0x1p-47 * std::abs(ln_x) < 0.5 * quantum)
      return static_cast<std::int32_t>(k);
  }
  return detail::quantize_log_level_exact(x, quantum);
}

/// quantize_log_level over a whole array: out[i] = quantize_log_level(xs[i],
/// quantum). The same series and boundary test run four lanes at a time
/// with AVX2 where the CPU has it; a lane near a boundary takes the exact
/// expression, as in the scalar function. `out` must be as long as `xs`.
void quantize_log_levels(std::span<const double> xs, double quantum,
                         std::span<std::int32_t> out);

/// Tuning knobs for cluster detection.
struct ClusterOptions {
  /// Log-space quantization bucket width for both parameters. Links whose
  /// T (or B) differ by less than a factor exp(quantum) can land in the
  /// same level; ~0.25 tolerates ±28% measurement jitter.
  double quantum = 0.25;
  /// Homogeneity band: within a cluster, the slowest internal pair may
  /// exceed the fastest by at most this factor, per parameter. Must be
  /// >= 1. Larger values merge more aggressively; 1.0 only merges pairs
  /// in identical quantized levels.
  double tolerance = 4.0;
  /// Reference message size for the merge-priority metric
  /// (T + ref_bytes / B): merges are attempted fastest-pair-first under
  /// this effective cost.
  std::uint64_t ref_bytes = 64 * 1024;
};

/// A partition of the directory's nodes into logical clusters.
///
/// Cluster ids are dense, 0-based, and ordered by each cluster's smallest
/// member, with members listed in ascending order — a canonical form, so
/// two equal partitions compare equal with ==.
struct Clustering {
  /// Node id -> cluster id.
  std::vector<std::size_t> cluster_of;
  /// Cluster id -> sorted member node ids.
  std::vector<std::vector<std::size_t>> members;

  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return members.size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return cluster_of.size();
  }
  /// True when detection found no exploitable structure: one big cluster
  /// (flat network) — hierarchical scheduling should fall back to the
  /// flat path.
  [[nodiscard]] bool flat() const noexcept { return members.size() <= 1; }

  [[nodiscard]] bool operator==(const Clustering&) const = default;
};

/// Detects logical homogeneous clusters in a network snapshot. O(P^2) in
/// memory and close to O(P^2) in time (complete linkage with cached row
/// minima); deterministic in (network, options).
[[nodiscard]] Clustering detect_clusters(const NetworkModel& network,
                                         const ClusterOptions& options = {});

/// Convenience overload: snapshots `directory` at `now_s` and detects on
/// the snapshot.
[[nodiscard]] Clustering detect_clusters(const DirectoryService& directory,
                                         double now_s,
                                         const ClusterOptions& options = {});

/// Elects one representative node per cluster: the medoid — the member
/// with the smallest total effective cost (T + ref_bytes/B, worse
/// direction) to its fellow members, ties to the lowest node id. A
/// singleton cluster's representative is its only member.
[[nodiscard]] std::vector<std::size_t> elect_representatives(
    const NetworkModel& network, const Clustering& clustering,
    std::uint64_t ref_bytes = 64 * 1024);

/// The quotient network over cluster representatives: a K x K
/// NetworkModel whose (a, b) link carries the parameters the directory
/// advertises between representative(a) and representative(b). The
/// diagonal gets zero start-up and a large bandwidth sentinel, like every
/// NetworkModel diagonal. This is the directory the inter-cluster
/// exchange is scheduled over.
[[nodiscard]] NetworkModel quotient_network(
    const NetworkModel& network, const Clustering& clustering,
    const std::vector<std::size_t>& representatives);

}  // namespace hcs
