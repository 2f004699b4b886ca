#include "service/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/bytes.hpp"

namespace hcs::service {
namespace {

// The protocol is little-endian on the wire; the memcpy-on-LE encode and
// decode primitives live in util/bytes.hpp (shared with the sweep shard
// codec). Instantiated here with WireError so malformed frames surface as
// protocol errors.
using Writer = ByteWriter<WireError>;
using Cursor = ByteCursor<WireError>;

SchedulerKind checked_kind(std::uint8_t raw) {
  switch (static_cast<SchedulerKind>(raw)) {
    case SchedulerKind::kBaseline:
    case SchedulerKind::kBaselineBarrier:
    case SchedulerKind::kMaxMatching:
    case SchedulerKind::kMinMatching:
    case SchedulerKind::kGreedy:
    case SchedulerKind::kOpenShop:
    case SchedulerKind::kRandom:
      return static_cast<SchedulerKind>(raw);
  }
  throw WireError("wire: unknown scheduler kind " + std::to_string(raw));
}

std::uint32_t checked_processors(std::uint32_t p, const char* what) {
  if (p < 2 || p > kMaxProcessors)
    throw WireError(std::string(what) + ": processors out of range [2, " +
                    std::to_string(kMaxProcessors) + "]");
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode_schedule_request(
    const ScheduleRequest& request) {
  if (!request.messages.square())
    throw WireError("encode_schedule_request: message matrix must be square");
  const std::size_t p =
      checked_processors(static_cast<std::uint32_t>(request.messages.rows()),
                         "encode_schedule_request");
  std::vector<std::uint8_t> out;
  Writer writer(out, 16 + 8 * p * p);
  writer.u8(kWireVersion);
  writer.u8(static_cast<std::uint8_t>(request.kind));
  writer.u8(request.hierarchical ? 1 : 0);
  writer.u8(0);  // reserved
  writer.u32(static_cast<std::uint32_t>(p));
  writer.f64(request.now_s);
  writer.u64_block(request.messages.data());
  writer.finish();
  return out;
}

ScheduleRequest decode_schedule_request(std::span<const std::uint8_t> payload) {
  Cursor cursor(payload);
  const std::uint8_t version = cursor.u8();
  if (version != kWireVersion)
    throw WireError("decode_schedule_request: unsupported version " +
                    std::to_string(version));
  ScheduleRequest request;
  request.kind = checked_kind(cursor.u8());
  const std::uint8_t flags = cursor.u8();
  if ((flags & ~std::uint8_t{1}) != 0)
    throw WireError("decode_schedule_request: unknown flag bits");
  request.hierarchical = (flags & 1) != 0;
  (void)cursor.u8();  // reserved
  const std::uint32_t p =
      checked_processors(cursor.u32(), "decode_schedule_request");
  request.now_s = cursor.f64();
  if (!(request.now_s >= 0.0) || !std::isfinite(request.now_s))
    throw WireError("decode_schedule_request: now_s must be finite and >= 0");
  if (cursor.remaining() != 8 * static_cast<std::size_t>(p) * p)
    throw WireError("decode_schedule_request: message matrix size mismatch");
  request.messages = MessageMatrix(p, p);
  cursor.u64_block(request.messages.mutable_data());
  cursor.expect_exhausted("decode_schedule_request");
  return request;
}

namespace {

/// Response payload layout: a 24-byte head, then 24 bytes per event.
constexpr std::size_t kResponseHeadBytes = 24;
constexpr std::size_t kEventBytes = 24;

/// The one response encoder: both public overloads call it.
std::vector<std::uint8_t> encode_response(
    std::uint8_t flags, std::size_t processors, double completion_s,
    std::span<const ScheduledEvent> events) {
  const std::size_t p = checked_processors(
      static_cast<std::uint32_t>(processors), "encode_schedule_response");
  std::vector<std::uint8_t> out;
  Writer writer(out, kResponseHeadBytes + kEventBytes * events.size());
  writer.u8(kWireVersion);
  writer.u8(flags);
  writer.u16(0);  // reserved
  writer.u32(static_cast<std::uint32_t>(p));
  writer.f64(completion_s);
  writer.u32(static_cast<std::uint32_t>(events.size()));
  writer.u32(0);  // reserved
  std::uint8_t* at = writer.claim(kEventBytes * events.size());
  for (const ScheduledEvent& event : events) {
    store_le(at, static_cast<std::uint32_t>(event.src));
    store_le(at + 4, static_cast<std::uint32_t>(event.dst));
    store_le(at + 8, std::bit_cast<std::uint64_t>(event.start_s));
    store_le(at + 16, std::bit_cast<std::uint64_t>(event.finish_s));
    at += kEventBytes;
  }
  writer.finish();
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_schedule_response(
    const ScheduleResponse& response) {
  return encode_response(
      static_cast<std::uint8_t>((response.cache_hit ? 1 : 0) |
                                (response.coalesced ? 2 : 0)),
      response.processors, response.completion_s, response.events);
}

std::vector<std::uint8_t> encode_schedule_response(const Schedule& schedule) {
  return encode_response(0, schedule.processor_count(),
                         schedule.completion_time(), schedule.events());
}

ScheduleResponse decode_schedule_response(
    std::span<const std::uint8_t> payload) {
  Cursor cursor(payload);
  const std::uint8_t version = cursor.u8();
  if (version != kWireVersion)
    throw WireError("decode_schedule_response: unsupported version " +
                    std::to_string(version));
  ScheduleResponse response;
  const std::uint8_t flags = cursor.u8();
  if ((flags & ~std::uint8_t{3}) != 0)
    throw WireError("decode_schedule_response: unknown flag bits");
  response.cache_hit = (flags & 1) != 0;
  response.coalesced = (flags & 2) != 0;
  (void)cursor.u16();  // reserved
  const std::uint32_t p =
      checked_processors(cursor.u32(), "decode_schedule_response");
  response.processors = p;
  response.completion_s = cursor.f64();
  const std::uint32_t event_count = cursor.u32();
  (void)cursor.u32();  // reserved
  if (cursor.remaining() != kEventBytes * static_cast<std::size_t>(event_count))
    throw WireError("decode_schedule_response: event block size mismatch");
  // The block size is checked once above; the loop only converts, and
  // folds the endpoint range check into one flag tested after it. Events
  // are appended, not resized in first: each lands in memory touched once.
  const std::uint8_t* at = cursor.take(kEventBytes * event_count);
  response.events.reserve(event_count);
  bool out_of_range = false;
  for (std::uint32_t k = 0; k < event_count; ++k, at += kEventBytes) {
    const std::uint32_t src = load_le<std::uint32_t>(at);
    const std::uint32_t dst = load_le<std::uint32_t>(at + 4);
    out_of_range |= (src >= p) | (dst >= p);
    response.events.push_back(
        {src, dst, std::bit_cast<double>(load_le<std::uint64_t>(at + 8)),
         std::bit_cast<double>(load_le<std::uint64_t>(at + 16))});
  }
  if (out_of_range)
    throw WireError("decode_schedule_response: event endpoint out of range");
  cursor.expect_exhausted("decode_schedule_response");
  return response;
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& error) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + error.message.size());
  Writer writer(out, 2);
  writer.u16(static_cast<std::uint16_t>(error.code));
  writer.finish();
  out.insert(out.end(), error.message.begin(), error.message.end());
  return out;
}

ErrorFrame decode_error(std::span<const std::uint8_t> payload) {
  Cursor cursor(payload);
  ErrorFrame error;
  const std::uint16_t code = cursor.u16();
  switch (static_cast<ErrorCode>(code)) {
    case ErrorCode::kBusy:
    case ErrorCode::kBadRequest:
    case ErrorCode::kInternal:
      error.code = static_cast<ErrorCode>(code);
      break;
    default:
      throw WireError("decode_error: unknown error code " +
                      std::to_string(code));
  }
  error.message = cursor.rest_as_string();
  return error;
}

std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    FrameType type, std::size_t payload_bytes) {
  if (payload_bytes > kMaxPayloadBytes)
    throw WireError("append_frame: payload exceeds kMaxPayloadBytes");
  std::array<std::uint8_t, kFrameHeaderBytes> header;
  store_le(header.data(), static_cast<std::uint32_t>(payload_bytes));
  header[4] = static_cast<std::uint8_t>(type);
  return header;
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  const auto header = frame_header(type, payload.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty() && error_.empty()) {
    const std::span<std::uint8_t> into = recv_buffer();
    const std::size_t n = std::min(into.size(), bytes.size());
    std::memcpy(into.data(), bytes.data(), n);
    commit(n);
    bytes = bytes.subspan(n);
  }
}

std::span<std::uint8_t> FrameReader::recv_buffer() {
  if (!error_.empty()) throw WireError(error_);
  if (!in_payload_)
    return std::span<std::uint8_t>(header_).subspan(header_filled_);
  std::vector<std::uint8_t>& payload = partial_.payload;
  if (payload_filled_ == payload.size())
    // Within the capacity reserved at the header: no reallocation, and
    // only the step about to be received is zeroed.
    payload.resize(
        std::min<std::size_t>(payload_length_, payload.size() + kPayloadStep));
  return std::span<std::uint8_t>(payload).subspan(payload_filled_);
}

void FrameReader::commit(std::size_t bytes) {
  if (!in_payload_) {
    header_filled_ += bytes;
    if (header_filled_ == kFrameHeaderBytes) start_payload();
    return;
  }
  payload_filled_ += bytes;
  if (payload_filled_ == payload_length_) {
    ready_.push_back(std::move(partial_));
    partial_ = Frame{};
    in_payload_ = false;
    payload_filled_ = 0;
  }
}

void FrameReader::start_payload() {
  const std::uint32_t length = load_le<std::uint32_t>(header_.data());
  if (length > kMaxPayloadBytes) {
    error_ = "FrameReader: frame length " + std::to_string(length) +
             " exceeds limit";
    return;
  }
  const std::uint8_t raw_type = header_[4];
  if (raw_type < static_cast<std::uint8_t>(FrameType::kScheduleRequest) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kSweepResult)) {
    error_ = "FrameReader: unknown frame type " + std::to_string(raw_type);
    return;
  }
  header_filled_ = 0;
  partial_.type = static_cast<FrameType>(raw_type);
  if (length == 0) {
    ready_.push_back(std::move(partial_));
    partial_ = Frame{};
    return;
  }
  // The whole payload's capacity up front, so it never moves while it
  // fills; a recycled buffer that fits keeps its bytes unzeroed.
  if (spare_.capacity() >= length) partial_.payload = std::move(spare_);
  spare_ = {};
  partial_.payload.reserve(length);
  if (partial_.payload.size() > length) partial_.payload.resize(length);
  payload_length_ = length;
  in_payload_ = true;
}

std::optional<Frame> FrameReader::next() {
  if (!ready_.empty()) {
    Frame frame = std::move(ready_.front());
    ready_.pop_front();
    return frame;
  }
  if (!error_.empty()) throw WireError(error_);
  return std::nullopt;
}

std::size_t FrameReader::buffered() const noexcept {
  std::size_t bytes = header_filled_ + payload_filled_;
  if (in_payload_) bytes += kFrameHeaderBytes;
  for (const Frame& frame : ready_)
    bytes += kFrameHeaderBytes + frame.payload.size();
  return bytes;
}

}  // namespace hcs::service
