#include "service/socket_io.hpp"

#include <sys/socket.h>

#include <cerrno>

namespace hcs::service {

bool send_all(int fd, std::span<iovec> parts) {
  std::size_t first = 0;
  while (first < parts.size()) {
    msghdr message{};
    message.msg_iov = parts.data() + first;
    message.msg_iovlen = parts.size() - first;
    const ssize_t sent = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip the iovecs the kernel took whole; trim the one it took part of.
    auto left = static_cast<std::size_t>(sent);
    while (first < parts.size() && left >= parts[first].iov_len)
      left -= parts[first++].iov_len;
    if (left > 0) {
      iovec& part = parts[first];
      part.iov_base = static_cast<std::uint8_t*>(part.iov_base) + left;
      part.iov_len -= left;
    }
  }
  return true;
}

bool send_frame(int fd, FrameType type, std::span<const std::uint8_t> payload) {
  auto header = frame_header(type, payload.size());
  // sendmsg takes non-const iovec bases but only reads through them.
  iovec parts[2] = {
      {header.data(), header.size()},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  return send_all(fd, parts);
}

}  // namespace hcs::service
