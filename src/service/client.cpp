#include "service/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "service/socket_io.hpp"

namespace hcs::service {
namespace {

int connect_unix(const std::string& socket_path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(address.sun_path))
    throw InputError("ServiceClient: bad socket path: " + socket_path);
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw InputError("ServiceClient: socket() failed: " +
                     std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd);
    throw InputError("ServiceClient: connect(" + socket_path +
                     ") failed: " + std::string(std::strerror(saved)));
  }
  return fd;
}

int connect_tcp(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size())
    throw InputError("ServiceClient: tcp endpoint needs host:port, got '" +
                     host_port + "'");
  const std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &results);
  if (rc != 0)
    throw InputError("ServiceClient: resolve(" + host_port +
                     ") failed: " + std::string(::gai_strerror(rc)));

  int fd = -1;
  std::string last_error = "no addresses";
  for (addrinfo* entry = results; entry != nullptr; entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) break;
    last_error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0)
    throw InputError("ServiceClient: connect(tcp:" + host_port +
                     ") failed: " + last_error);
  // Request/response round trips are latency-bound; never batch them
  // behind Nagle.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void arm_timeout(int fd, double timeout_s) {
  if (!(timeout_s > 0.0)) return;
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_s);
  timeout.tv_usec = static_cast<suseconds_t>(
      (timeout_s - std::floor(timeout_s)) * 1e6);
  if (timeout.tv_sec == 0 && timeout.tv_usec == 0) timeout.tv_usec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

}  // namespace

ServiceClient::ServiceClient(const std::string& endpoint, double timeout_s) {
  if (endpoint.rfind("tcp:", 0) == 0)
    fd_ = connect_tcp(endpoint.substr(4));
  else if (endpoint.rfind("unix:", 0) == 0)
    fd_ = connect_unix(endpoint.substr(5));
  else
    fd_ = connect_unix(endpoint);
  arm_timeout(fd_, timeout_s);
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), reader_(std::move(other.reader_)) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
  }
  return *this;
}

void ServiceClient::send_frame(FrameType type,
                               std::span<const std::uint8_t> payload) {
  if (!service::send_frame(fd_, type, payload))
    throw InputError("ServiceClient: send failed: " +
                     std::string(std::strerror(errno)));
}

Frame ServiceClient::read_frame() {
  while (true) {
    if (auto frame = reader_.next()) return std::move(*frame);
    // Straight into the frame being assembled: no bounce buffer.
    const std::span<std::uint8_t> into = reader_.recv_buffer();
    const ssize_t n = ::recv(fd_, into.data(), into.size(), 0);
    if (n == 0)
      throw InputError("ServiceClient: server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw InputError("ServiceClient: recv failed: " +
                       std::string(std::strerror(errno)));
    }
    reader_.commit(static_cast<std::size_t>(n));
  }
}

Frame ServiceClient::round_trip(FrameType type,
                                std::span<const std::uint8_t> payload) {
  send_frame(type, payload);
  Frame frame = read_frame();
  if (frame.type == FrameType::kError) {
    const ErrorFrame error = decode_error(frame.payload);
    throw ServiceError(error.code, error.message);
  }
  return frame;
}

ScheduleResponse ServiceClient::schedule(const ScheduleRequest& request) {
  const auto payload = encode_schedule_request(request);
  Frame frame = round_trip(FrameType::kScheduleRequest, payload);
  if (frame.type != FrameType::kScheduleResponse)
    throw WireError("ServiceClient: expected kScheduleResponse, got type " +
                    std::to_string(static_cast<int>(frame.type)));
  ScheduleResponse response = decode_schedule_response(frame.payload);
  reader_.recycle(std::move(frame.payload));
  return response;
}

std::vector<std::uint8_t> ServiceClient::sweep_shard(
    std::span<const std::uint8_t> request) {
  Frame frame = round_trip(FrameType::kSweepRequest, request);
  if (frame.type != FrameType::kSweepResult)
    throw WireError("ServiceClient: expected kSweepResult, got type " +
                    std::to_string(static_cast<int>(frame.type)));
  return std::move(frame.payload);
}

std::string ServiceClient::scrape_metrics(bool text) {
  const std::uint8_t format = text ? 1 : 0;
  Frame frame = round_trip(FrameType::kMetricsRequest, {&format, 1});
  if (frame.type != FrameType::kMetricsResponse)
    throw WireError("ServiceClient: expected kMetricsResponse, got type " +
                    std::to_string(static_cast<int>(frame.type)));
  return std::string(reinterpret_cast<const char*>(frame.payload.data()),
                     frame.payload.size());
}

void ServiceClient::shutdown_server() {
  Frame frame = round_trip(FrameType::kShutdown, {});
  if (frame.type != FrameType::kShutdown)
    throw WireError("ServiceClient: expected kShutdown ack, got type " +
                    std::to_string(static_cast<int>(frame.type)));
}

}  // namespace hcs::service
