// hcsd wire protocol: length-prefixed binary frames.
//
// The scheduling daemon and its clients exchange frames over a stream
// socket. Every frame is
//
//   [u32 payload_length][u8 frame_type][payload bytes ...]
//
// with all integers little-endian and doubles IEEE-754 bit patterns
// carried as u64. The length counts only the payload (not the 5-byte
// header) and is bounded by kMaxPayloadBytes, so a corrupt or hostile
// peer can neither make the receiver allocate unboundedly nor desync the
// stream silently — any malformed header or payload throws WireError and
// the connection is dropped.
//
// Frame payloads:
//   kScheduleRequest   u8 version, u8 scheduler_kind, u8 flags
//                      (bit 0: hierarchical), u8 reserved, u32 P,
//                      f64 now_s, P*P u64 message bytes (row-major,
//                      sender-major like CommMatrix)
//   kScheduleResponse  u8 version, u8 flags (bit 0: cache hit, bit 1:
//                      coalesced onto another request's in-flight solve),
//                      u16 reserved, u32 P, f64 completion_s,
//                      u32 event_count, u32 reserved, then per event
//                      u32 src, u32 dst, f64 start_s, f64 finish_s
//   kMetricsRequest    u8 format (0 = JSON, 1 = text)
//   kMetricsResponse   UTF-8 scrape body
//   kError             u16 error code (ErrorCode), UTF-8 message
//   kShutdown          empty; the server acknowledges with an empty
//                      kShutdown frame, finishes in-flight work, and exits
//   kSweepRequest      opaque sweep shard request (encoded by
//                      src/experiment/sweep_shard.hpp: a contiguous block
//                      of the global work-unit index space plus the sweep
//                      spec needed to run it)
//   kSweepResult       opaque sweep shard result (same codec: the per-unit
//                      accumulator values for the requested block)
//
// Encoding and decoding are pure functions of the bytes — no I/O here —
// so the whole protocol is unit- and fuzz-testable without a socket.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "util/error.hpp"
#include "workload/generators.hpp"

namespace hcs::service {

/// Thrown on any malformed frame: bad header, truncated or oversized
/// payload, unknown type or enum value, inconsistent counts.
class WireError : public InputError {
 public:
  explicit WireError(const std::string& what) : InputError(what) {}
};

enum class FrameType : std::uint8_t {
  kScheduleRequest = 1,
  kScheduleResponse = 2,
  kMetricsRequest = 3,
  kMetricsResponse = 4,
  kError = 5,
  kShutdown = 6,
  kSweepRequest = 7,
  kSweepResult = 8,
};

enum class ErrorCode : std::uint16_t {
  kBusy = 1,        ///< request queue full — backpressure, retry later
  kBadRequest = 2,  ///< malformed or out-of-contract request
  kInternal = 3,    ///< scheduling failed server-side
};

/// Protocol version carried in request/response payloads.
inline constexpr std::uint8_t kWireVersion = 1;
/// Hard payload bound: a P = kMaxProcessors request is ~8 MiB.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 26;
/// Largest exchange the service accepts (bounds request/response size).
inline constexpr std::uint32_t kMaxProcessors = 1024;
/// Bytes preceding the payload: u32 length + u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// A client's ask: schedule this total exchange against the directory
/// view at now_s.
struct ScheduleRequest {
  SchedulerKind kind = SchedulerKind::kOpenShop;
  bool hierarchical = false;
  double now_s = 0.0;       ///< directory snapshot instant
  MessageMatrix messages;   ///< P x P bytes, sender-major
};

/// The server's answer: the timed schedule plus cache provenance.
struct ScheduleResponse {
  bool cache_hit = false;  ///< served from the schedule cache
  bool coalesced = false;  ///< waited on an identical in-flight solve
  double completion_s = 0.0;
  std::size_t processors = 0;
  std::vector<ScheduledEvent> events;

  /// Materializes the events as a Schedule (validates nothing beyond the
  /// Schedule constructor's own checks).
  [[nodiscard]] Schedule to_schedule() const {
    return Schedule{processors, events};
  }
};

/// Decoded kError payload.
struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// --- payload codecs (pure; throw WireError on malformed input) ---------

[[nodiscard]] std::vector<std::uint8_t> encode_schedule_request(
    const ScheduleRequest& request);
[[nodiscard]] ScheduleRequest decode_schedule_request(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_schedule_response(
    const ScheduleResponse& response);
/// The canonical encoding of a solved schedule (flags zero): the bytes
/// encode_schedule_response(ScheduleResponse) writes for a response
/// carrying this schedule's events, completion and processor count,
/// written straight from the schedule without copying its events.
[[nodiscard]] std::vector<std::uint8_t> encode_schedule_response(
    const Schedule& schedule);
[[nodiscard]] ScheduleResponse decode_schedule_response(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const ErrorFrame& error);
[[nodiscard]] ErrorFrame decode_error(std::span<const std::uint8_t> payload);

// --- framing ------------------------------------------------------------

/// The 5-byte header of a frame carrying `payload_bytes`. Throws WireError
/// when the payload exceeds kMaxPayloadBytes.
[[nodiscard]] std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    FrameType type, std::size_t payload_bytes);

/// Appends one complete frame (header + payload) to `out`. Throws
/// WireError when the payload exceeds kMaxPayloadBytes.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);

/// Incremental frame decoder for a byte stream. Bytes land in the frame
/// being assembled: a socket reader asks recv_buffer() where the next
/// bytes go (the rest of the current header, or the rest of the current
/// payload, never past it), reads into it and commit()s the count, so a
/// payload arrives in its frame's own buffer with no intermediate copy;
/// feed() copies bytes that are already in memory through the same
/// steps. next() yields complete frames in order. A malformed header
/// (oversized length, unknown type) makes next() throw WireError once the
/// frames before it are taken — the stream cannot be resynchronized after
/// that, so callers drop the connection.
///
/// A payload's capacity is reserved at its declared length (at most
/// kMaxPayloadBytes) when its header completes, but the buffer is sized
/// kPayloadStep at a time as bytes arrive: a header alone commits little
/// memory.
class FrameReader {
 public:
  /// Appends raw stream bytes.
  void feed(std::span<const std::uint8_t> bytes);

  /// Where the next stream bytes belong; never empty. Throws WireError
  /// once a malformed header has been read.
  [[nodiscard]] std::span<std::uint8_t> recv_buffer();

  /// Records that the first `bytes` of recv_buffer() were filled.
  void commit(std::size_t bytes);

  /// Extracts the next complete frame, or nullopt when more bytes are
  /// needed. Throws WireError on a malformed header.
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes received but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept;

  /// Hands a taken frame's payload back once the caller is done with it;
  /// the next payload that fits its capacity is received into it. A
  /// long-lived connection then reuses memory that stays mapped instead of
  /// allocating (and first-touching) a fresh buffer per frame.
  void recycle(std::vector<std::uint8_t>&& payload) noexcept {
    spare_ = std::move(payload);
  }

 private:
  /// Validates the complete header and starts its payload.
  void start_payload();

  /// Largest payload slice made ready for one recv.
  static constexpr std::size_t kPayloadStep = std::size_t{1} << 20;

  std::array<std::uint8_t, kFrameHeaderBytes> header_{};
  std::size_t header_filled_ = 0;
  bool in_payload_ = false;
  Frame partial_;  ///< capacity reserved at the header's length
  std::size_t payload_length_ = 0;  ///< the header's length
  std::size_t payload_filled_ = 0;
  std::deque<Frame> ready_;
  std::vector<std::uint8_t> spare_;  ///< recycle()d payload buffer
  std::string error_;  ///< malformed-header diagnostic; the stream is dead
};

}  // namespace hcs::service
