#include "daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "util/error.hpp"

extern char** environ;

namespace perfbench {

using amdrel::Error;
using amdrel::util::Json;

Daemon::Daemon(const std::string& binary, int workers) {
  int fds[2];
  if (pipe(fds) != 0) throw Error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string workers_arg = std::to_string(workers);
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>("--port"),
                             const_cast<char*>("0"),
                             const_cast<char*>("--workers"),
                             const_cast<char*>(workers_arg.c_str()),
                             nullptr};
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  stdout_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    close(stdout_fd_);
    throw Error("cannot start " + binary + ": " + std::strerror(rc));
  }
  // The daemon prints "listening on <port>" once bound.
  std::string banner;
  char c = 0;
  while (banner.size() < 256 && read(stdout_fd_, &c, 1) == 1 && c != '\n') {
    banner.push_back(c);
  }
  const std::string prefix = "listening on ";
  if (banner.rfind(prefix, 0) != 0) {
    kill_and_reap();
    throw Error("amdrel_serve did not start: '" + banner + "'");
  }
  port_ = std::stoi(banner.substr(prefix.size()));
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::shutdown() {
  if (pid_ < 0) return;
  try {
    LineClient client(port_);
    Json req = Json::make_object();
    req.set("cmd", "shutdown");
    client.call(req);
  } catch (const std::exception&) {
    kill_and_reap();
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      close(stdout_fd_);
      stdout_fd_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill_and_reap();
}

void Daemon::kill_and_reap() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

LineClient::LineClient(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd_);
    fd_ = -1;
    throw Error("cannot connect to amdrel_serve on port " +
                std::to_string(port));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

Json LineClient::call(const Json& request) {
  const std::string line = request.dump() + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = send(fd_, line.data() + sent, line.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) throw Error("amdrel_serve connection lost while sending");
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      const std::string reply = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return amdrel::util::parse_json(reply);
    }
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) throw Error("amdrel_serve hung up mid-reply");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
