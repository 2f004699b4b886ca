// Little-endian byte codec building blocks.
//
// ByteWriter and ByteCursor are the sequential encode/decode primitives
// shared by every binary format in the tree: the service wire protocol
// (src/service/wire.cpp) and the sweep shard codec
// (src/experiment/sweep_shard.cpp). Both formats are little-endian on
// the wire with doubles carried as IEEE-754 u64 bit patterns; on
// little-endian hosts scalars and whole u64 arrays move with memcpy, and
// a shift-based fallback keeps the format identical on big-endian hosts.
//
// The classes are templated on the exception type so each format throws
// its own error (WireError, SweepShardError) without this header pulling
// in either layer — that independence is what lets the experiment layer
// encode shards without depending on src/service.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace hcs {

inline constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

/// Stores `v` little-endian at `at` (one memcpy on LE hosts).
template <typename T>
inline void store_le(std::uint8_t* at, T v) noexcept {
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(at, &v, sizeof v);
  } else {
    for (std::size_t k = 0; k < sizeof v; ++k)
      at[k] = static_cast<std::uint8_t>(v >> (8 * k));
  }
}

/// Loads a little-endian T from `at` (one memcpy on LE hosts).
template <typename T>
[[nodiscard]] inline T load_le(const std::uint8_t* at) noexcept {
  T v{};
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(&v, at, sizeof v);
  } else {
    for (std::size_t k = 0; k < sizeof v; ++k)
      v = static_cast<T>(v | (static_cast<T>(at[k]) << (8 * k)));
  }
  return v;
}

/// Sequential writer over a pre-sized region of `out`: the caller
/// declares the payload size once, then fields land via memcpy instead of
/// repeated push_back growth checks. Throws `Error` on size-formula
/// drift (finish() with unwritten bytes).
template <typename Error>
class ByteWriter {
 public:
  ByteWriter(std::vector<std::uint8_t>& out, std::size_t bytes)
      : out_(out), pos_(out.size()) {
    out_.resize(out_.size() + bytes);
  }

  void u8(std::uint8_t v) { out_[pos_++] = v; }
  void u16(std::uint16_t v) { put_scalar(v); }
  void u32(std::uint32_t v) { put_scalar(v); }
  void u64(std::uint64_t v) { put_scalar(v); }
  void f64(double v) { put_scalar(std::bit_cast<std::uint64_t>(v)); }

  /// Bulk little-endian u64 block — one memcpy on LE hosts.
  void u64_block(std::span<const std::uint64_t> values) {
    if constexpr (kHostIsLittleEndian) {
      std::memcpy(out_.data() + pos_, values.data(), 8 * values.size());
      pos_ += 8 * values.size();
    } else {
      for (const std::uint64_t v : values) u64(v);
    }
  }

  /// Bulk double block, carried as u64 bit patterns.
  void f64_block(std::span<const double> values) {
    if constexpr (kHostIsLittleEndian) {
      std::memcpy(out_.data() + pos_, values.data(), 8 * values.size());
      pos_ += 8 * values.size();
    } else {
      for (const double v : values) f64(v);
    }
  }

  /// The next `bytes` bytes as raw storage for a caller's own loop (with
  /// store_le); they count as written.
  [[nodiscard]] std::uint8_t* claim(std::size_t bytes) noexcept {
    std::uint8_t* at = out_.data() + pos_;
    pos_ += bytes;
    return at;
  }

  /// All declared bytes must be written — catches size-formula drift.
  void finish() const {
    if (pos_ != out_.size())
      throw Error("bytes: encoder size mismatch (internal)");
  }

 private:
  template <typename T>
  void put_scalar(T v) {
    store_le(out_.data() + pos_, v);
    pos_ += sizeof v;
  }

  std::vector<std::uint8_t>& out_;
  std::size_t pos_;
};

/// Bounds-checked sequential reader over a payload. Throws `Error` on
/// any read past the end or on trailing bytes at expect_exhausted().
template <typename Error>
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() { return scalar<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  /// Bulk little-endian u64 block — one memcpy on LE hosts.
  void u64_block(std::span<std::uint64_t> dst) {
    need(8 * dst.size());
    if constexpr (kHostIsLittleEndian) {
      std::memcpy(dst.data(), bytes_.data() + pos_, 8 * dst.size());
      pos_ += 8 * dst.size();
    } else {
      for (std::uint64_t& v : dst) v = u64();
    }
  }

  /// Bulk double block, carried as u64 bit patterns.
  void f64_block(std::span<double> dst) {
    need(8 * dst.size());
    if constexpr (kHostIsLittleEndian) {
      std::memcpy(dst.data(), bytes_.data() + pos_, 8 * dst.size());
      pos_ += 8 * dst.size();
    } else {
      for (double& v : dst) v = f64();
    }
  }

  /// The next `bytes` bytes for a caller's own loop (with load_le),
  /// bounds-checked once.
  [[nodiscard]] const std::uint8_t* take(std::size_t bytes) {
    need(bytes);
    const std::uint8_t* at = bytes_.data() + pos_;
    pos_ += bytes;
    return at;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// Remaining bytes as a string (used by error messages and scrapes).
  [[nodiscard]] std::string rest_as_string() {
    std::string text(reinterpret_cast<const char*>(bytes_.data()) + pos_,
                     remaining());
    pos_ = bytes_.size();
    return text;
  }
  void expect_exhausted(const char* what) const {
    if (pos_ != bytes_.size())
      throw Error(std::string(what) + ": trailing bytes in payload");
  }

 private:
  template <typename T>
  [[nodiscard]] T scalar() {
    return load_le<T>(take(sizeof(T)));
  }

  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) throw Error("bytes: truncated payload");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace hcs
