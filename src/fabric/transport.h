// Byte transport of the sweep fabric: line-oriented streams over
// unix-domain or TCP sockets.
//
// Endpoints are spelled `unix:PATH`, `tcp:HOST:PORT`, or a bare filesystem
// path (shorthand for `unix:PATH`). `tcp:HOST:0` binds an ephemeral port;
// Listener::address() reports the resolved one.
//
// Streams are blocking sockets driven with poll(): send_line appends the
// newline and writes it out whole; recv_line returns one complete line
// (newline stripped), a timeout, or closed. A partial line still buffered
// when the peer disconnects — the torn tail of a crashed worker — is
// dropped, mirroring how the checkpoint journal ignores a torn last line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace chronos::fabric {

/// Parsed endpoint. `port` is meaningful only when `tcp` is set.
struct Endpoint {
  bool tcp = false;
  std::string path_or_host;
  int port = 0;
};

/// Parses `unix:PATH` / `tcp:HOST:PORT` / bare-path endpoint syntax.
/// Throws PreconditionError on an empty path, a bad port, or an
/// over-long unix path.
Endpoint parse_endpoint(const std::string& spec);

/// Canonical display form ("unix:/tmp/x.sock", "tcp:127.0.0.1:9000").
std::string endpoint_to_string(const Endpoint& endpoint);

/// One connected byte stream, line-framed.
class Stream {
 public:
  /// Takes ownership of a connected socket fd.
  explicit Stream(int fd);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  enum class Recv {
    kLine,     ///< a complete line was returned
    kTimeout,  ///< no complete line within the timeout
    kClosed,   ///< peer closed (or the line overflowed kMaxFrameBytes)
  };

  /// Sends `line` plus a newline, whole; false on any send error (the peer
  /// vanished). Never raises SIGPIPE.
  bool send_line(std::string_view line);

  /// Sends raw bytes with no newline — only the fault injector uses this,
  /// to emit the front half of a torn frame before "crashing".
  bool send_bytes(std::string_view bytes);

  /// Returns the next complete line (newline stripped). `timeout_ms` 0
  /// polls: it drains only what is already buffered or readable right now.
  Recv recv_line(std::string& out, int timeout_ms);

  /// True when a full line is already buffered; recv_line(out, 0) will
  /// return it without touching the socket.
  bool has_buffered_line() const;

  int fd() const { return fd_; }

  /// Closes the socket early (idempotent; the destructor also closes).
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Listening socket for the controller.
class Listener {
 public:
  /// Binds and listens. A stale unix socket file at the path is unlinked
  /// first. Throws PreconditionError when binding fails.
  explicit Listener(const Endpoint& endpoint);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one pending connection; nullptr when none is ready within
  /// `timeout_ms`.
  std::unique_ptr<Stream> accept(int timeout_ms);

  int fd() const { return fd_; }

  /// The bound endpoint, with any ephemeral TCP port resolved.
  const Endpoint& local() const { return local_; }

 private:
  int fd_ = -1;
  Endpoint local_;
  bool unlink_on_close_ = false;
};

/// Sleeps `ms`, returning false early when `cancel` (when non-null) is
/// raised. It polls the flag every 10 ms rather than waiting on a condition
/// variable because a signal handler can only set an atomic.
bool cancellable_sleep(std::uint64_t ms, const std::atomic<bool>* cancel);

/// One connection attempt; nullptr on failure.
std::unique_ptr<Stream> connect_endpoint(const Endpoint& endpoint);

/// Bounded-retry connect with exponential backoff: up to `attempts` tries,
/// sleeping `backoff_ms` (doubling, capped at 2 s) between them. Checks
/// `cancel` (when non-null) before each attempt and while sleeping, so a
/// SIGINT interrupts the wait promptly. nullptr when every attempt failed
/// or the cancel flag was raised.
std::unique_ptr<Stream> connect_with_retry(const Endpoint& endpoint,
                                           int attempts, int backoff_ms,
                                           const std::atomic<bool>* cancel);

}  // namespace chronos::fabric
