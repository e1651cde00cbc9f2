#pragma once
// The serve_fixedw workload's view of amdrel_serve: a child daemon
// process and line-protocol client connections to it.

#include <sys/types.h>

#include <string>

#include "util/json.hpp"

namespace perfbench {

/// An amdrel_serve child process on an ephemeral localhost port. The
/// destructor kills and reaps a daemon that was not shut down, so no
/// exit path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& binary, int workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Sends the drain `shutdown` command and reaps the process (killing
  /// it if it has not exited within the grace period).
  void shutdown();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// One TCP connection speaking the newline-delimited JSON protocol.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line and returns the parsed reply line. Throws
  /// amdrel::Error on a connection failure or a malformed reply.
  amdrel::util::Json call(const amdrel::util::Json& request);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace perfbench
