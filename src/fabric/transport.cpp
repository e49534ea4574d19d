#include "fabric/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/error.h"
#include "fabric/protocol.h"
#include "obs/metrics.h"

namespace chronos::fabric {

namespace {

const obs::Counter c_bytes_sent = obs::counter("fabric.bytes_sent");
const obs::Counter c_bytes_received = obs::counter("fabric.bytes_received");
const obs::Counter c_connect_retries = obs::counter("fabric.connect_retries");

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  CHRONOS_EXPECTS(path.size() < sizeof(address.sun_path),
                  "unix socket path too long: '" + path + "'");
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

/// getaddrinfo wrapper; returns -1 instead of throwing so connect attempts
/// can be retried.
int open_tcp(const Endpoint& endpoint, bool listen_mode) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listen_mode) {
    hints.ai_flags = AI_PASSIVE;
  }
  addrinfo* found = nullptr;
  const std::string port = std::to_string(endpoint.port);
  if (::getaddrinfo(endpoint.path_or_host.c_str(), port.c_str(), &hints,
                    &found) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* info = found; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (listen_mode) {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, info->ai_addr, info->ai_addrlen) == 0) {
        break;
      }
    } else if (::connect(fd, info->ai_addr, info->ai_addrlen) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  return fd;
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  CHRONOS_EXPECTS(!spec.empty(), "empty fabric endpoint");
  Endpoint endpoint;
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.tcp = true;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    CHRONOS_EXPECTS(colon != std::string::npos && colon > 0,
                    "tcp endpoint wants tcp:HOST:PORT, got '" + spec + "'");
    endpoint.path_or_host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long parsed = std::strtol(port.c_str(), &end, 10);
    CHRONOS_EXPECTS(end != nullptr && *end == '\0' && !port.empty() &&
                        parsed >= 0 && parsed <= 65535,
                    "bad tcp port in '" + spec + "'");
    endpoint.port = static_cast<int>(parsed);
    return endpoint;
  }
  endpoint.path_or_host =
      spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
  CHRONOS_EXPECTS(!endpoint.path_or_host.empty(),
                  "empty unix socket path in '" + spec + "'");
  unix_address(endpoint.path_or_host);  // validates the length
  return endpoint;
}

std::string endpoint_to_string(const Endpoint& endpoint) {
  if (endpoint.tcp) {
    return "tcp:" + endpoint.path_or_host + ":" +
           std::to_string(endpoint.port);
  }
  return "unix:" + endpoint.path_or_host;
}

Stream::Stream(int fd) : fd_(fd) {}

Stream::~Stream() { close(); }

void Stream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Stream::send_bytes(std::string_view bytes) {
  if (fd_ < 0) {
    return false;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a vanished peer yields EPIPE instead of killing the
    // process — the fabric treats it like any other disconnect.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  c_bytes_sent.add(bytes.size());
  return true;
}

bool Stream::send_line(std::string_view line) {
  std::string framed(line);
  framed += '\n';
  return send_bytes(framed);
}

bool Stream::has_buffered_line() const {
  return buffer_.find('\n') != std::string::npos;
}

Stream::Recv Stream::recv_line(std::string& out, int timeout_ms) {
  const std::uint64_t deadline = now_ms() + static_cast<std::uint64_t>(
                                                timeout_ms < 0 ? 0
                                                               : timeout_ms);
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      out.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return Recv::kLine;
    }
    if (buffer_.size() > kMaxFrameBytes) {
      // A peer streaming an unbounded "line" is broken; cut it off.
      return Recv::kClosed;
    }
    if (fd_ < 0) {
      return Recv::kClosed;
    }
    const std::uint64_t now = now_ms();
    const int remaining =
        now >= deadline ? 0 : static_cast<int>(deadline - now);
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Recv::kClosed;
    }
    if (ready == 0) {
      return Recv::kTimeout;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Recv::kClosed;
    }
    if (n == 0) {
      // Peer closed; whatever partial line remains buffered is a torn tail
      // and is dropped, like a torn journal line.
      return Recv::kClosed;
    }
    c_bytes_received.add(static_cast<std::uint64_t>(n));
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Listener::Listener(const Endpoint& endpoint) : local_(endpoint) {
  if (endpoint.tcp) {
    fd_ = open_tcp(endpoint, /*listen_mode=*/true);
    CHRONOS_EXPECTS(fd_ >= 0, "cannot bind " + endpoint_to_string(endpoint));
    sockaddr_storage bound{};
    socklen_t length = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &length) ==
        0) {
      if (bound.ss_family == AF_INET) {
        local_.port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        local_.port =
            ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
  } else {
    ::unlink(endpoint.path_or_host.c_str());  // stale socket from a crash
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHRONOS_EXPECTS(fd_ >= 0, "cannot create unix socket");
    const sockaddr_un address = unix_address(endpoint.path_or_host);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
      CHRONOS_EXPECTS(false,
                      "cannot bind " + endpoint_to_string(endpoint) + ": " +
                          std::strerror(errno));
    }
    unlink_on_close_ = true;
  }
  if (::listen(fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    CHRONOS_EXPECTS(false, "cannot listen on " +
                               endpoint_to_string(endpoint) + ": " + detail);
  }
}

Listener::~Listener() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  if (unlink_on_close_) {
    ::unlink(local_.path_or_host.c_str());
  }
}

std::unique_ptr<Stream> Listener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) {
    return nullptr;
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    return nullptr;
  }
  return std::make_unique<Stream>(fd);
}

bool cancellable_sleep(std::uint64_t ms, const std::atomic<bool>* cancel) {
  for (std::uint64_t slept = 0;; slept += 10) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    if (slept >= ms) {
      return true;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<std::uint64_t>(10, ms - slept)));
  }
}

std::unique_ptr<Stream> connect_endpoint(const Endpoint& endpoint) {
  int fd = -1;
  if (endpoint.tcp) {
    fd = open_tcp(endpoint, /*listen_mode=*/false);
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      const sockaddr_un address = unix_address(endpoint.path_or_host);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) != 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
  if (fd < 0) {
    return nullptr;
  }
  return std::make_unique<Stream>(fd);
}

std::unique_ptr<Stream> connect_with_retry(const Endpoint& endpoint,
                                           int attempts, int backoff_ms,
                                           const std::atomic<bool>* cancel) {
  CHRONOS_EXPECTS(attempts >= 1, "connect_with_retry wants attempts >= 1");
  CHRONOS_EXPECTS(backoff_ms >= 1, "connect_with_retry wants backoff >= 1");
  int sleep_ms = 0;  // no wait before the first attempt
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      c_connect_retries.add();
      sleep_ms = attempt == 1 ? backoff_ms : std::min(sleep_ms * 2, 2000);
    }
    if (!cancellable_sleep(static_cast<std::uint64_t>(sleep_ms), cancel)) {
      return nullptr;
    }
    auto stream = connect_endpoint(endpoint);
    if (stream != nullptr) {
      return stream;
    }
  }
  return nullptr;
}

}  // namespace chronos::fabric
