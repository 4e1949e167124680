// One-shot vcalc processes: spawn, capture stdout, reap, time.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "bench.hpp"
#include "support/format.hpp"

extern char** environ;

namespace perfbench {

ProcRun run_process(const std::vector<std::string>& argv) {
  ProcRun r;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return r;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  pid_t pid = -1;
  int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return r;
  }
  char buf[1 << 14];
  for (;;) {
    ssize_t got = ::read(fds[0], buf, sizeof buf);
    if (got > 0) {
      r.out.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  r.ms = ms_between(t0, Clock::now());
  r.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::vector<std::string> vcalc_argv(const std::string& vcalc,
                                    const Instance& inst,
                                    const std::string& file, Target target,
                                    const std::string& cache_dir) {
  std::vector<std::string> argv = {vcalc, vcal::cat("--target=", target_name(target)),
                                   "--jit-cache-dir", cache_dir};
  for (const Input& in : inst.inputs) argv.insert(argv.end(), {"--init", in.name});
  for (const std::string& out : inst.outputs) argv.insert(argv.end(), {"--print", out});
  argv.push_back(file);
  return argv;
}

std::string expected_print(const Instance& inst) {
  // vcalc prints arrays in --print order, each as "NAME = v v v" with %g.
  std::string out;
  char buf[64];
  for (const std::string& name : inst.outputs) {
    out += name + " =";
    for (double v : inst.expect.at(name)) {
      std::snprintf(buf, sizeof buf, " %g", v);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

}  // namespace perfbench
