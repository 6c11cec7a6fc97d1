#include "child.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "trace.h"

namespace exsample {
namespace e2e {

bool LineIo::WriteAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

int LineIo::ReadLine(std::string* line, int64_t deadline_ns) {
  char chunk[64 * 1024];
  while (true) {
    switch (buffer_.Pop(line)) {
      case net::LineBuffer::Next::kLine:
        return 1;
      case net::LineBuffer::Next::kOverflow:
        return -1;
      case net::LineBuffer::Next::kNeedMore:
        break;
    }
    const int64_t remaining = deadline_ns - NowNs();
    if (remaining <= 0) return 0;
    pollfd waiter{fd_, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(remaining / 1000000000),
                           static_cast<long>(remaining % 1000000000)};
    const int ready = ppoll(&waiter, 1, &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (ready == 0) return 0;
    const ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n == 0) return -1;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return -1;
    }
    buffer_.Append(chunk, static_cast<size_t>(n));
  }
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) close(fd_);
}

bool TcpConnection::Connect(uint16_t port, std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  io_ = LineIo(fd_);
  return true;
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         bool pipe_stdin, std::string* error) {
  int out_pipe[2] = {-1, -1};
  int in_pipe[2] = {-1, -1};
  if (pipe2(out_pipe, O_CLOEXEC) != 0 ||
      (pipe_stdin && pipe2(in_pipe, O_CLOEXEC) != 0)) {
    *error = std::string("pipe: ") + std::strerror(errno);
    for (int fd : {out_pipe[0], out_pipe[1], in_pipe[0], in_pipe[1]}) {
      if (fd >= 0) close(fd);
    }
    return false;
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  pid_ = fork();
  if (pid_ == 0) {
    // Child: async-signal-safe calls only until exec.
    dup2(out_pipe[1], STDOUT_FILENO);
    if (pipe_stdin) {
      dup2(in_pipe[0], STDIN_FILENO);
    } else {
      const int devnull = open("/dev/null", O_RDONLY);
      if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  close(out_pipe[1]);
  if (pipe_stdin) close(in_pipe[0]);
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(out_pipe[0]);
    if (pipe_stdin) close(in_pipe[1]);
    return false;
  }
  stdout_fd_ = out_pipe[0];
  stdin_fd_ = pipe_stdin ? in_pipe[1] : -1;
  out_ = LineIo(stdout_fd_);
  in_ = LineIo(stdin_fd_);
  return true;
}

void ChildProcess::Stop() {
  if (pid_ <= 0) return;
  // EOF first: a stdin-mode server exits on it by itself.
  if (stdin_fd_ >= 0) {
    close(stdin_fd_);
    stdin_fd_ = -1;
  }
  kill(pid_, SIGTERM);
  int status = 0;
  pid_t reaped = 0;
  for (int waited_ms = 0; waited_ms < 5000; waited_ms += 5) {
    reaped = waitpid(pid_, &status, WNOHANG);
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
}

}  // namespace e2e
}  // namespace exsample
