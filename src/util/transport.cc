#include "src/util/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace grgad {
namespace {

constexpr int kPollMillis = 50;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Fills `addr` from `path`; false when the path does not fit sun_path.
bool FillSockAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

LineChannel::LineChannel(int read_fd, int write_fd, bool own_fds)
    : read_fd_(read_fd), write_fd_(write_fd), own_fds_(own_fds) {}

LineChannel::~LineChannel() {
  if (!own_fds_) return;
  ::close(read_fd_);
  if (write_fd_ != read_fd_) ::close(write_fd_);
}

Status LineChannel::ReadLine(std::string* line, bool* eof,
                             const CancelToken* stop) {
  line->clear();
  *eof = false;
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return Status::Ok();
    }
    if (stop != nullptr && stop->stop_requested()) {
      *eof = true;
      return Status::Ok();
    }
    pollfd pfd{read_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;  // A stop signal lands on the next poll.
      return Errno("poll");
    }
    if (ready == 0) continue;  // Timeout tick: re-check the stop token.
    char chunk[4096];
    const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) {
      // End of stream; hand back a trailing unterminated line, if any.
      if (!buffer_.empty()) {
        line->swap(buffer_);
        return Status::Ok();
      }
      *eof = true;
      return Status::Ok();
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status LineChannel::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::string framed = line + "\n";
  size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(write_fd_, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<UnixServerSocket> UnixServerSocket::Listen(const std::string& path) {
  sockaddr_un addr;
  if (!FillSockAddr(path, &addr)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // A stale socket file from a dead daemon blocks bind; replace it. A live
  // daemon on the same path loses its listener too — picking distinct paths
  // is the operator's contract, same as any pidfile.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Errno("bind " + path);
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    const Status status = Errno("listen " + path);
    ::close(fd);
    ::unlink(path.c_str());
    return status;
  }
  return UnixServerSocket(fd, path);
}

UnixServerSocket::~UnixServerSocket() { CloseAndUnlink(); }

UnixServerSocket::UnixServerSocket(UnixServerSocket&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

void UnixServerSocket::CloseAndUnlink() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
  }
}

Result<int> UnixServerSocket::Accept(const CancelToken* stop) {
  for (;;) {
    if (stop != nullptr && stop->stop_requested()) return -1;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (ready == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Errno("accept");
    }
    return client;
  }
}

Result<int> ConnectUnixSocket(const std::string& path,
                              double timeout_seconds) {
  sockaddr_un addr;
  if (!FillSockAddr(path, &addr)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    const int saved_errno = errno;
    ::close(fd);
    // Absent or not-yet-listening paths are the expected startup race; give
    // the daemon until the deadline. Anything else is a real error.
    if (saved_errno != ENOENT && saved_errno != ECONNREFUSED) {
      errno = saved_errno;
      return Errno("connect " + path);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("connect " + path + ": daemon not up " +
                                      "within the wait window");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
  }
}

}  // namespace grgad
