#include "proc.hpp"

#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace fprbench {
namespace {

/// Closes a file descriptor on scope exit.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

// The runner and its spawn helper talk over a socket pair in frames of
// 8-byte integers and length-prefixed strings. Sends never raise
// SIGPIPE: a vanished peer is an error return.

bool send_all(int fd, const std::string& buf) {
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + done, buf.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, p + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void put_u64(std::string& buf, std::uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_f64(std::string& buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(v));
  put_u64(buf, bits);
}

void put_str(std::string& buf, const std::string& s) {
  put_u64(buf, s.size());
  buf += s;
}

bool get_u64(int fd, std::uint64_t& v) { return recv_all(fd, &v, sizeof(v)); }

bool get_f64(int fd, double& v) {
  std::uint64_t bits = 0;
  if (!get_u64(fd, bits)) return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool get_str(int fd, std::string& s) {
  std::uint64_t size = 0;
  if (!get_u64(fd, size)) return false;
  s.resize(size);
  return size == 0 || recv_all(fd, s.data(), size);
}

/// The helper's loop: one argv in, one ProcResult (or error) out, until
/// the runner closes its end.
[[noreturn]] void serve(int fd) {
  for (;;) {
    std::uint64_t argc = 0;
    if (!get_u64(fd, argc)) ::_exit(0);
    std::vector<std::string> argv(argc);
    for (auto& a : argv) {
      if (!get_str(fd, a)) ::_exit(0);
    }
    std::string reply;
    try {
      const ProcResult r = run_process(argv);
      put_u64(reply, 0);
      put_u64(reply, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.exit_code)));
      put_f64(reply, r.wall_s);
      put_f64(reply, r.peak_rss_mb);
      put_str(reply, r.out);
      put_str(reply, r.err);
    } catch (const std::exception& e) {
      reply.clear();
      put_u64(reply, 1);
      put_str(reply, e.what());
    }
    if (!send_all(fd, reply)) ::_exit(1);
  }
}

}  // namespace

ProcResult run_process(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::runtime_error("run_process: empty argv");
  int out_pipe[2];
  int err_pipe[2];
  if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe failed");
  Fd out_r{out_pipe[0]}, out_w{out_pipe[1]};
  if (::pipe(err_pipe) != 0) throw std::runtime_error("pipe failed");
  Fd err_r{err_pipe[0]}, err_w{err_pipe[1]};

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_w.fd, STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, err_w.fd, STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_r.fd);
  posix_spawn_file_actions_addclose(&actions, err_r.fd);

  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  ProcResult r;
  const auto t0 = std::chrono::steady_clock::now();
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn '" + argv[0] +
                             "': " + std::strerror(rc));
  }
  out_w.reset();
  err_w.reset();

  // Drain both pipes until the child closes them: a child blocked on a
  // full pipe would otherwise never exit.
  pollfd fds[2] = {{out_r.fd, POLLIN, 0}, {err_r.fd, POLLIN, 0}};
  std::string* sinks[2] = {&r.out, &r.err};
  int open_fds = 2;
  char buf[65536];
  while (open_fds > 0) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      const ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
      if (n > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        fds[i].fd = -1;  // closed (the Fd guards release it)
        --open_fds;
      }
    }
  }

  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return r;
}

Spawner::Spawner() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::fflush(nullptr);  // the helper must not repeat buffered output
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::close(sv[0]);
    serve(sv[1]);
  }
  ::close(sv[1]);
  fd_ = sv[0];
}

Spawner::~Spawner() {
  ::close(fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

ProcResult Spawner::run(const std::vector<std::string>& argv) {
  std::string request;
  put_u64(request, argv.size());
  for (const auto& a : argv) put_str(request, a);
  if (!send_all(fd_, request)) throw std::runtime_error("spawn helper is gone");

  std::uint64_t status = 0;
  if (!get_u64(fd_, status)) throw std::runtime_error("spawn helper is gone");
  if (status != 0) {
    std::string what;
    get_str(fd_, what);
    throw std::runtime_error(what);
  }
  ProcResult r;
  std::uint64_t code = 0;
  if (!get_u64(fd_, code) || !get_f64(fd_, r.wall_s) ||
      !get_f64(fd_, r.peak_rss_mb) || !get_str(fd_, r.out) ||
      !get_str(fd_, r.err)) {
    throw std::runtime_error("spawn helper is gone");
  }
  r.exit_code = static_cast<int>(static_cast<std::int64_t>(code));
  return r;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::string self_dir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace fprbench
