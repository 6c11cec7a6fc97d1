// Child processes and line-framed I/O for the TCP workloads: the server
// under test runs as a child of the benchmark, and the load generator talks
// to it over sockets it reads with a deadline, so a slow reply never delays
// a scheduled send.

#ifndef EXSAMPLE_BENCH_E2E_CHILD_H_
#define EXSAMPLE_BENCH_E2E_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/line_buffer.h"

namespace exsample {
namespace e2e {

/// Blocking writes and deadline-bounded line reads on one descriptor it
/// does not own (a socket or a pipe end).
class LineIo {
 public:
  explicit LineIo(int fd = -1) : fd_(fd) {}

  int fd() const { return fd_; }
  bool WriteAll(const std::string& bytes);
  /// Next '\n'-terminated line (without the '\n'). Returns 1 for a line, 0
  /// when `deadline_ns` (NowNs clock) passed first, -1 on EOF or error.
  int ReadLine(std::string* line, int64_t deadline_ns);

 private:
  int fd_;
  net::LineBuffer buffer_{256 << 20};
};

/// A TCP connection to 127.0.0.1:port with TCP_NODELAY; closed on
/// destruction.
class TcpConnection {
 public:
  TcpConnection() = default;
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  bool Connect(uint16_t port, std::string* error);
  LineIo& io() { return io_; }

 private:
  int fd_ = -1;
  LineIo io_;
};

/// A child process with its stdout (and optionally stdin) piped to us.
/// Stop() — also run by the destructor — terminates it and waits for it.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess() { Stop(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool Start(const std::vector<std::string>& argv, bool pipe_stdin,
             std::string* error);
  /// SIGTERM, up to 5 s for a graceful exit, then SIGKILL; always reaps.
  void Stop();
  pid_t pid() const { return pid_; }
  LineIo& out() { return out_; }
  LineIo& in() { return in_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int stdin_fd_ = -1;
  LineIo out_;
  LineIo in_;
};

}  // namespace e2e
}  // namespace exsample

#endif  // EXSAMPLE_BENCH_E2E_CHILD_H_
