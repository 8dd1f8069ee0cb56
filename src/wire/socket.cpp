#include "wire/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.h"

namespace cosmos::wire {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error{what + ": " + std::strerror(errno)};
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error{"wire: unix socket path too long: " + path};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string h = host.empty() ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    throw Error{"wire: cannot parse IPv4 host: " + h};
  }
  return addr;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& address) {
  Endpoint e;
  if (address.starts_with("unix:")) {
    e.kind = Kind::kUnix;
    e.path = address.substr(5);
    if (e.path.empty()) throw Error{"wire: empty unix socket path"};
    return e;
  }
  std::string rest = address;
  if (rest.starts_with("tcp:")) rest = rest.substr(4);
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos) {
    throw Error{"wire: expected tcp:host:port or unix:/path, got: " + address};
  }
  e.kind = Kind::kTcp;
  e.host = rest.substr(0, colon);
  const std::string port = rest.substr(colon + 1);
  char* end = nullptr;
  const long p = std::strtol(port.c_str(), &end, 10);
  if (port.empty() || *end != '\0' || p < 0 || p > 65535) {
    throw Error{"wire: bad tcp port in: " + address};
  }
  e.port = static_cast<std::uint16_t>(p);
  return e;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + (host.empty() ? "127.0.0.1" : host) + ":" +
         std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("wire: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Socket::recv_all(std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("wire: recv failed");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between frames
      throw Error{"wire: peer closed mid-frame (" + std::to_string(got) +
                  " of " + std::to_string(size) + " bytes)"};
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void send_frame(Socket& s, const Frame& frame) {
  const auto buf = encode_frame(frame);
  s.send_all(buf.data(), buf.size());
}

std::optional<Frame> recv_frame(Socket& s) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!s.recv_all(header, sizeof(header))) return std::nullopt;
  Frame frame;
  const std::uint32_t len = decode_frame_header(header, frame.type);
  frame.payload.resize(len);
  if (len > 0 && !s.recv_all(frame.payload.data(), len)) {
    throw Error{"wire: peer closed between frame header and payload"};
  }
  return frame;
}

Listener::Listener(const Endpoint& at) : at_(at) {
  if (at_.kind == Endpoint::Kind::kUnix) {
    // A SIGKILLed worker never unlinks its bound path, and bind() on an
    // existing socket file fails with EADDRINUSE — so a respawned worker
    // must clear the stale file first. Only ever remove a *socket*: a
    // regular file at the path is a caller mistake we refuse to clobber.
    struct stat st{};
    if (::lstat(at_.path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        throw Error{"wire: refusing to unlink non-socket at " + at_.path};
      }
      ::unlink(at_.path.c_str());
    }
    sock_ = Socket{::socket(AF_UNIX, SOCK_STREAM, 0)};
    if (!sock_.valid()) throw_errno("wire: socket(AF_UNIX)");
    const auto addr = make_unix_addr(at_.path);
    if (::bind(sock_.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("wire: bind " + at_.to_string());
    }
    unlink_on_close_ = true;
  } else {
    sock_ = Socket{::socket(AF_INET, SOCK_STREAM, 0)};
    if (!sock_.valid()) throw_errno("wire: socket(AF_INET)");
    const int one = 1;
    ::setsockopt(sock_.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    auto addr = make_tcp_addr(at_.host, at_.port);
    if (::bind(sock_.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("wire: bind " + at_.to_string());
    }
    if (at_.port == 0) {
      socklen_t len = sizeof(addr);
      if (::getsockname(sock_.fd(), reinterpret_cast<sockaddr*>(&addr),
                        &len) != 0) {
        throw_errno("wire: getsockname");
      }
      at_.port = ntohs(addr.sin_port);
    }
  }
  if (::listen(sock_.fd(), 16) != 0) {
    throw_errno("wire: listen " + at_.to_string());
  }
}

Listener::~Listener() {
  close();
  sock_.close();
}

Socket Listener::accept() {
  while (true) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      if (at_.kind == Endpoint::Kind::kTcp) {
        // Frames are latency-sensitive RPCs; never wait for Nagle.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      return Socket{fd};
    }
    if (errno == EINTR) continue;
    throw_errno("wire: accept on " + at_.to_string());
  }
}

void Listener::close() noexcept {
  // Shutdown-only: an accept thread may be blocked on this fd, and closing
  // it here would race that thread's read of the descriptor (and could hand
  // a recycled fd number to the accepter). shutdown() wakes the accepter
  // with EINVAL; the fd itself is released in the destructor, which runs
  // only after every accepter has been joined.
  sock_.shutdown_both();
  if (unlink_on_close_) {
    ::unlink(at_.path.c_str());
    unlink_on_close_ = false;
  }
}

Socket connect_to(const Endpoint& to, int timeout_ms) {
  const auto start = Clock::now();
  const auto deadline = start + DurationMs(timeout_ms);
  int attempts = 0;
  while (true) {
    ++attempts;
    Socket s;
    int rc = -1;
    if (to.kind == Endpoint::Kind::kUnix) {
      s = Socket{::socket(AF_UNIX, SOCK_STREAM, 0)};
      if (!s.valid()) throw_errno("wire: socket(AF_UNIX)");
      const auto addr = make_unix_addr(to.path);
      rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } else {
      s = Socket{::socket(AF_INET, SOCK_STREAM, 0)};
      if (!s.valid()) throw_errno("wire: socket(AF_INET)");
      const auto addr = make_tcp_addr(to.host, to.port);
      rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
      if (rc == 0) {
        const int one = 1;
        ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
    }
    if (rc == 0) return s;
    // The daemon may not have bound its listener yet: retry the races
    // (refused / missing socket file) until the deadline.
    const int last_errno = errno;
    const bool retryable = last_errno == ECONNREFUSED ||
                           last_errno == ENOENT || last_errno == EAGAIN;
    if (!retryable || Clock::now() >= deadline) {
      // Name the endpoint, the retry budget actually spent, and the last
      // errno — "refused after exhausting the 10 s budget" and "no route,
      // gave up immediately" must be tellable apart from the message.
      const auto elapsed_ms =
          std::chrono::duration_cast<DurationMs>(Clock::now() - start)
              .count();
      throw Error{"wire: connect to " + to.to_string() + " failed after " +
                  std::to_string(attempts) + " attempt(s) over " +
                  std::to_string(elapsed_ms) + " ms (budget " +
                  std::to_string(timeout_ms) + " ms): " +
                  std::strerror(last_errno) +
                  (retryable ? " [retry budget exhausted]"
                             : " [not retryable]")};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace cosmos::wire
