// Socket writes shared by hcsd and its client.
//
// A frame goes out as its 5-byte header and its payload in one vectored
// sendmsg: the payload is never copied behind a header first. Readers use
// FrameReader::recv_buffer() (wire.hpp), which receives each payload into
// its frame's own buffer.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <span>

#include "service/wire.hpp"

namespace hcs::service {

/// Writes every byte of `parts`, in order, with sendmsg(MSG_NOSIGNAL),
/// resuming after short writes and EINTR. Advances `parts` as it goes.
/// Returns false on any other error, with errno set.
[[nodiscard]] bool send_all(int fd, std::span<iovec> parts);

/// Sends one frame: header and payload as two iovecs. Throws WireError
/// when the payload exceeds kMaxPayloadBytes; otherwise as send_all.
[[nodiscard]] bool send_frame(int fd, FrameType type,
                              std::span<const std::uint8_t> payload);

}  // namespace hcs::service
