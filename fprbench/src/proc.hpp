// Run one command the way a user runs it: a child process, its stdout
// captured, timed from spawn to reap, with the child's own peak RSS.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace fprbench {

struct ProcResult {
  int exit_code = -1;  ///< exit status; -1 when killed by a signal
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< the child's maximum resident set
  std::string out;           ///< everything it wrote to stdout
  std::string err;           ///< everything it wrote to stderr
};

/// Spawn argv[0] (a path) with `argv`, drain both output pipes until it
/// exits and reap it. Throws std::runtime_error when it cannot spawn.
///
/// The child's reported peak RSS is at least the calling process's own
/// peak: Linux carries the exec-ing address space's high-water mark into
/// the new image's ru_maxrss. Call it from a small process (see Spawner).
ProcResult run_process(const std::vector<std::string>& argv);

/// A helper process, forked while the runner is still small, that runs
/// commands with run_process on the runner's behalf. Commands it spawns
/// inherit the helper's peak RSS rather than the runner's, which grows
/// with set-up and oracles, so peak_rss_mb is the command's own.
class Spawner {
 public:
  /// Forks the helper. Construct it before any heavy work and before
  /// any thread starts.
  Spawner();
  /// Closes the runner's end of the socket, which ends the helper, and
  /// reaps it.
  ~Spawner();
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// run_process(argv) in the helper. Throws std::runtime_error when the
  /// command cannot be spawned or the helper is gone.
  ProcResult run(const std::vector<std::string>& argv);

 private:
  pid_t pid_ = -1;
  int fd_ = -1;  ///< the runner's end of the socket pair to the helper
};

/// Peak resident set of this process so far, in MB.
double self_peak_rss_mb();

/// Directory holding the running executable.
std::string self_dir();

}  // namespace fprbench
