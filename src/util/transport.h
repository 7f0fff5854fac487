// Newline-delimited byte transport for the serving daemon (no third-party
// deps, POSIX only).
//
// Two pieces:
//   LineChannel       a line-framed duplex stream over a pair of file
//                     descriptors — stdin/stdout when `grgad serve` runs as
//                     a pipe child, or one accepted AF_UNIX connection.
//                     Reads poll a CancelToken so a SIGTERM-initiated drain
//                     interrupts a blocked read within one poll tick.
//   UnixServerSocket  a listening AF_UNIX socket whose Accept() polls the
//                     same way, plus ConnectUnixSocket() with a bounded
//                     connect-retry window for the `grgad query` client (the
//                     daemon may still be loading/training when the client
//                     starts).
//
// Threading: one reader at a time per channel; WriteLine is internally
// serialized so the daemon's response writer and error paths can share the
// channel.
#ifndef GRGAD_UTIL_TRANSPORT_H_
#define GRGAD_UTIL_TRANSPORT_H_

#include <mutex>
#include <string>

#include "src/util/cancel.h"
#include "src/util/status.h"

namespace grgad {

class LineChannel {
 public:
  /// Wraps the fd pair (read_fd may equal write_fd, e.g. a socket). With
  /// `own_fds` the destructor closes them (once, when equal). Writers
  /// should expect EPIPE as an IoError, not a signal: callers that serve
  /// untrusted peers must ignore SIGPIPE themselves.
  LineChannel(int read_fd, int write_fd, bool own_fds);
  ~LineChannel();

  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  /// Blocks for the next '\n'-terminated line. On success *eof is false and
  /// *line holds the line without its terminator. *eof true (still OK)
  /// means a clean end of stream — or `stop` fired, checked every ~50ms —
  /// with any unterminated trailing partial line returned first as a final
  /// line. IoError on read failure.
  Status ReadLine(std::string* line, bool* eof,
                  const CancelToken* stop = nullptr);

  /// Writes `line` plus '\n'. Atomic with respect to concurrent WriteLine
  /// calls. IoError on write failure (including a closed peer).
  Status WriteLine(const std::string& line);

 private:
  int read_fd_;
  int write_fd_;
  bool own_fds_;
  std::string buffer_;  ///< Bytes read past the last returned line.
  std::mutex write_mu_;
};

class UnixServerSocket {
 public:
  /// Binds and listens on `path`, replacing any stale socket file there.
  /// InvalidArgument when the path overflows sun_path (~107 bytes).
  static Result<UnixServerSocket> Listen(const std::string& path);

  ~UnixServerSocket();
  UnixServerSocket(UnixServerSocket&& other) noexcept;
  UnixServerSocket(const UnixServerSocket&) = delete;
  UnixServerSocket& operator=(const UnixServerSocket&) = delete;

  /// Waits for the next connection, polling `stop` every ~50ms. Returns the
  /// connected fd (caller owns it), or -1 — still OK — when `stop` fired.
  Result<int> Accept(const CancelToken* stop);

  const std::string& path() const { return path_; }

 private:
  UnixServerSocket(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  void CloseAndUnlink();

  int fd_ = -1;
  std::string path_;
};

/// Connects to the daemon's socket, retrying refused/absent connections
/// until `timeout_seconds` elapses (the daemon trains before it listens).
/// Returns the connected fd; DeadlineExceeded when the window closes.
Result<int> ConnectUnixSocket(const std::string& path, double timeout_seconds);

}  // namespace grgad

#endif  // GRGAD_UTIL_TRANSPORT_H_
