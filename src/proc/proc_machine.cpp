#include "proc/proc_machine.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <numeric>
#include <optional>

#include "lang/translate.hpp"
#include "proc/control.hpp"
#include "proc/ring.hpp"
#include "proc/wire.hpp"
#include "rt/rank_step.hpp"
#include "rt/store.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::proc {

namespace {

using Clock = std::chrono::steady_clock;

/// Unlinks every non-directory entry in `dir` (rings, job file, control
/// socket, lock file — the directory holds nothing else).
void wipe_dir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (!d) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
}

std::string describe_exit(int status) {
  if (WIFSIGNALED(status))
    return cat("killed by signal ", WTERMSIG(status));
  if (WIFEXITED(status)) return cat("exit status ", WEXITSTATUS(status));
  return cat("wait status ", status);
}

}  // namespace

struct ProcMachine::RankState {
  pid_t pid = -1;
  int fd = -1;
  FrameSplitter split;
  bool hello = false;
  bool result = false;
  bool done = false;
  bool eof = false;
  bool reaped = false;
  int exit_status = 0;
  std::string last_msg = "(none)";
  std::deque<StepFrame> steps;
  struct Err {
    ErrCode code = ErrCode::Other;
    i64 step = 0;
    i64 rank = 0;
    std::string msg;
  };
  std::optional<Err> error;
};

ProcMachine::ProcMachine(std::string source, gen::BuildOptions opts,
                         rt::CostModel cost, rt::EngineOptions engine,
                         ProcOptions proc)
    : source_(std::move(source)),
      program_(lang::compile(source_)),
      opts_(opts),
      cost_(cost),
      engine_(engine),
      proc_(std::move(proc)) {
  program_.validate();
  message_matrix_.assign(
      static_cast<std::size_t>(program_.procs),
      std::vector<i64>(static_cast<std::size_t>(program_.procs), 0));
  rank_rows_.resize(static_cast<std::size_t>(program_.procs));
}

ProcMachine::~ProcMachine() { cleanup_dir(); }

void ProcMachine::load(const std::string& name,
                       const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(), "ProcMachine::load unknown " + name);
  require(static_cast<i64>(dense.size()) == it->second.total(),
          "DistStore::load size mismatch for " + name);
  inputs_.emplace_back(name, dense);
}

std::string ProcMachine::resolve_worker(const std::string& explicit_path) {
  if (!explicit_path.empty()) return explicit_path;
  if (const char* env = std::getenv("VCAL_WORKER_BIN"))
    if (*env) return env;
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0)
    throw RuntimeFault(
        "proc: cannot resolve a worker binary (no worker_path, no "
        "$VCAL_WORKER_BIN, and /proc/self/exe is unreadable)");
  buf[n] = '\0';
  return buf;
}

void ProcMachine::prepare_dir() {
  if (proc_.channel_dir.empty()) {
    owned_dir_ = support::ScopedDir::make("vcal-proc-");
    dir_ = owned_dir_.path();
  } else {
    dir_ = proc_.channel_dir;
    struct stat st{};
    if (::stat(dir_.c_str(), &st) == 0) {
      if (!S_ISDIR(st.st_mode))
        throw RuntimeFault("proc: channel dir is not a directory: " + dir_);
      // A lock file naming a live process means the directory belongs to
      // a concurrent run; anything else is stale state from a dead one.
      std::string lock = dir_ + "/lock.pid";
      if (FILE* f = std::fopen(lock.c_str(), "r")) {
        long long pid = 0;
        int got = std::fscanf(f, "%lld", &pid);
        std::fclose(f);
        if (got == 1 && pid > 0 && static_cast<pid_t>(pid) != ::getpid() &&
            ::kill(static_cast<pid_t>(pid), 0) == 0)
          throw RuntimeFault(cat("proc: channel dir ", dir_,
                                 " is in use by pid ", pid));
      }
      wipe_dir(dir_);
    } else {
      if (::mkdir(dir_.c_str(), 0700) != 0)
        throw RuntimeFault(cat("proc: cannot create channel dir ", dir_,
                               ": ", std::strerror(errno)));
    }
  }
  std::string lock = dir_ + "/lock.pid";
  FILE* f = std::fopen(lock.c_str(), "w");
  require(f != nullptr, "proc: cannot write " + lock);
  std::fprintf(f, "%lld\n", static_cast<long long>(::getpid()));
  std::fclose(f);
}

void ProcMachine::cleanup_dir() {
  if (dir_.empty()) return;
  if (owned_dir_.owns()) {
    owned_dir_.reset();  // removes the whole tree
  } else {
    // Caller-provided directory: wipe our state but leave it on disk.
    wipe_dir(dir_);
  }
  dir_.clear();
}

void ProcMachine::merge_step(i64 step,
                             std::vector<rt::RankCounters> counters) {
  const spmd::Step& st = program_.steps[static_cast<std::size_t>(step)];
  if (std::get_if<prog::Clause>(&st) != nullptr) {
    // Stall faults are launcher-side: the simulator proves a stalled
    // rank's step outcome is unchanged, so a real process is never
    // descheduled — only the accounting is replayed.
    const rt::FaultPlan* stall = nullptr;
    for (const rt::FaultPlan& f : faults_)
      if (f.step == step && f.kind == rt::FaultPlan::Kind::StallRank &&
          in_range(f.rank, 0, program_.procs - 1))
        stall = &f;
    if (stall) {
      stall_rounds_ += std::max<i64>(stall->rounds, 0);
      ++faults_applied_;
    }
  } else {
    const auto& rs = std::get<spmd::RedistStep>(st);
    const decomp::ArrayDesc& old_desc = program_.arrays.at(rs.array);
    const i64 moves = rt::redist_moves(old_desc, rs.new_desc);
    require(moves == std::accumulate(counters.begin(), counters.end(), i64{0},
                                     [](i64 acc, const rt::RankCounters& c) {
                                       return acc + c.sends;
                                     }),
            "redistribution workers disagree with the layouts on the "
            "message count");
    stats_.redist_messages += moves;
    program_.arrays.insert_or_assign(rs.array, rs.new_desc);
  }
  rt::add_step(stats_, counters, cost_);
  last_counters_ = std::move(counters);
}

void ProcMachine::run() {
  require(!ran_, "ProcMachine::run is one-shot");
  ran_ = true;
  const i64 procs = program_.procs;
  const i64 nsteps = static_cast<i64>(program_.steps.size());
  const std::string worker = resolve_worker(proc_.worker_path);
  prepare_dir();

  JobSpec job;
  job.source = source_;
  job.procs = procs;
  job.build = opts_;
  job.engine = engine_;
  job.faults = faults_;
  job.inputs = inputs_;
  job.timeout_ms = proc_.timeout_ms;
  job.ring_slots = proc_.ring_slots;
  const std::vector<std::uint8_t> echo = encode_options_echo(job);

  for (i64 s = 0; s < procs; ++s)
    for (i64 d = 0; d < procs; ++d)
      if (s != d) Ring::create(ring_path(dir_, s, d), proc_.ring_slots);
  save_job(job_path(dir_), job);

  // Control socket: bound and listening before any worker exists.
  const std::string sock_path = control_socket_path(dir_);
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(listen_fd >= 0, "proc: cannot create control socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (sock_path.size() >= sizeof addr.sun_path) {
    ::close(listen_fd);
    throw RuntimeFault("proc: control socket path too long: " + sock_path);
  }
  std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd, static_cast<int>(procs)) != 0) {
    int e = errno;
    ::close(listen_fd);
    throw RuntimeFault(cat("proc: cannot listen on ", sock_path, ": ",
                           std::strerror(e)));
  }

  std::vector<RankState> ranks(static_cast<std::size_t>(procs));
  struct Conn {
    int fd;
    FrameSplitter split;
  };
  std::vector<Conn> pending;  // connected, HELLO not yet seen

  // Every exit path kills what is still running, reaps it, and closes
  // every descriptor — a failed run never leaks processes or fds.
  struct Guard {
    std::vector<RankState>* ranks;
    std::vector<Conn>* pending;
    int listen_fd;
    ~Guard() {
      for (RankState& r : *ranks) {
        if (r.pid > 0 && !r.reaped) {
          ::kill(r.pid, SIGKILL);
          ::waitpid(r.pid, nullptr, 0);
          r.reaped = true;
        }
        if (r.fd >= 0) ::close(r.fd);
        r.fd = -1;
      }
      for (Conn& c : *pending) ::close(c.fd);
      pending->clear();
      ::close(listen_fd);
    }
  } guard{&ranks, &pending, listen_fd};

  for (i64 r = 0; r < procs; ++r) {
    pid_t pid = ::fork();
    require(pid >= 0, "proc: fork failed");
    if (pid == 0) {
      const std::string rank_str = cat(r);
      const char* argv[] = {worker.c_str(),   "--rank",
                            rank_str.c_str(), "--channel-dir",
                            dir_.c_str(),     nullptr};
      ::execv(worker.c_str(), const_cast<char* const*>(argv));
      std::fprintf(stderr, "vcalc: cannot exec worker %s: %s\n",
                   worker.c_str(), std::strerror(errno));
      ::_exit(127);
    }
    ranks[static_cast<std::size_t>(r)].pid = pid;
  }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(proc_.timeout_ms);
  std::optional<Clock::time_point> first_error;
  bool go_sent = false;
  i64 merged = 0;

  auto handle_frame = [&](RankState& rs, i64 rank, const ControlFrame& f) {
    WireReader r(f.payload.data(), f.payload.size());
    switch (f.type) {
      case MsgType::Step: {
        StepFrame sf;
        sf.step = r.get_i64();
        sf.counters = get_rank_counters(r);
        const std::uint32_t n = r.get_count(sizeof(i64));
        require(static_cast<i64>(n) == procs,
                "proc: STEP matrix row has the wrong width");
        sf.matrix_row.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) sf.matrix_row[i] = r.get_i64();
        sf.faults_delta = r.get_i64();
        rs.last_msg = cat("STEP(step ", sf.step, ")");
        rs.steps.push_back(std::move(sf));
        break;
      }
      case MsgType::Error: {
        RankState::Err e;
        e.code = static_cast<ErrCode>(r.get_u32());
        e.rank = r.get_i64();
        e.step = r.get_i64();
        e.msg = r.get_str();
        rs.last_msg = cat("ERROR(step ", e.step, ")");
        rs.error = std::move(e);
        if (!first_error) first_error = Clock::now();
        break;
      }
      case MsgType::Result: {
        // A row is at least a name length and a value count.
        const std::uint32_t nrows = r.get_count(2 * sizeof(std::uint32_t));
        auto& rows = rank_rows_[static_cast<std::size_t>(rank)];
        for (std::uint32_t i = 0; i < nrows; ++i) {
          std::string name = r.get_str();
          rows[name] = r.get_f64s();
        }
        if (r.get_u8() != 0) {
          if (traces_.empty())
            traces_.resize(static_cast<std::size_t>(procs));
          RankTraceDump& td = traces_[static_cast<std::size_t>(rank)];
          // An event is a kind byte and seven 8-byte fields.
          const std::uint32_t nev = r.get_count(1 + 7 * sizeof(i64));
          td.events.resize(nev);
          for (std::uint32_t i = 0; i < nev; ++i) {
            obs::TraceEvent& e = td.events[i];
            e.kind = static_cast<obs::EventKind>(r.get_u8());
            e.step = static_cast<std::int32_t>(r.get_i64());
            e.wall_ns = r.get_i64();
            e.virt = r.get_f64();
            e.a0 = r.get_i64();
            e.a1 = r.get_i64();
            e.a2 = r.get_i64();
            e.a3 = r.get_i64();
          }
          td.dropped = r.get_i64();
        }
        rs.last_msg = "RESULT";
        rs.result = true;
        break;
      }
      case MsgType::Done:
        rs.last_msg = "DONE";
        rs.done = true;
        break;
      default:
        throw RuntimeFault(cat("proc: unexpected ", msg_name(f.type),
                               " frame from rank ", rank));
    }
  };

  // Drains whatever rank `r`'s socket currently holds. Returns false
  // once the connection has reached EOF.
  auto drain = [&](i64 rank) {
    RankState& rs = ranks[static_cast<std::size_t>(rank)];
    if (rs.fd < 0 || rs.eof) return;
    std::uint8_t buf[16384];
    for (;;) {
      ssize_t n = ::recv(rs.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        rs.split.feed(buf, static_cast<std::size_t>(n));
        ControlFrame f;
        while (rs.split.next(&f)) handle_frame(rs, rank, f);
        continue;
      }
      if (n == 0) {
        rs.eof = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      rs.eof = true;
      return;
    }
  };

  auto kill_all = [&] {
    for (RankState& r : ranks)
      if (r.pid > 0 && !r.reaped) {
        ::kill(r.pid, SIGKILL);
        ::waitpid(r.pid, nullptr, 0);
        r.reaped = true;
      }
  };

  auto throw_collected_error = [&]() {
    const RankState::Err* best = nullptr;
    for (const RankState& r : ranks)
      if (r.error &&
          (!best || std::pair(r.error->step, r.error->rank) <
                        std::pair(best->step, best->rank)))
        best = &*r.error;
    require(best != nullptr, "proc: error arbitration without an error");
    RankState::Err e = *best;
    kill_all();
    switch (e.code) {
      case ErrCode::Deadlock: throw DeadlockError(e.msg);
      case ErrCode::Codegen: throw CodegenError(e.msg);
      case ErrCode::Semantic: throw SemanticError(e.msg);
      case ErrCode::Internal: throw InternalError(e.msg);
      case ErrCode::Runtime:
      case ErrCode::Other: break;
    }
    throw RuntimeFault(e.msg);
  };

  for (;;) {
    // Reap exits. A worker that already relayed ERROR or DONE exited on
    // purpose; anything else is an unexpected death — diagnose it now,
    // naming the rank and its last control-plane message, instead of
    // letting the surviving ranks time out.
    for (;;) {
      int status = 0;
      pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      for (i64 r = 0; r < procs; ++r) {
        RankState& rs = ranks[static_cast<std::size_t>(r)];
        if (rs.pid != pid) continue;
        rs.reaped = true;
        rs.exit_status = status;
        drain(r);  // an ERROR/DONE may still sit in the socket buffer
        if (!rs.done && !rs.error) {
          kill_all();
          throw RuntimeFault(
              cat("proc worker rank ", r, " died unexpectedly (",
                  describe_exit(status),
                  "); last control-plane message: ", rs.last_msg));
        }
      }
    }

    // Merge completed steps: once every rank reported step `merged`,
    // replay the simulator's serial merge.
    for (;;) {
      bool ready = merged < nsteps;
      for (const RankState& r : ranks)
        if (r.steps.empty()) ready = false;
      if (!ready) break;
      std::vector<rt::RankCounters> counters(
          static_cast<std::size_t>(procs));
      i64 faults_delta = 0;
      for (i64 r = 0; r < procs; ++r) {
        RankState& rs = ranks[static_cast<std::size_t>(r)];
        StepFrame sf = std::move(rs.steps.front());
        rs.steps.pop_front();
        require(sf.step == merged, "proc: out-of-order STEP frame");
        counters[static_cast<std::size_t>(r)] = sf.counters;
        for (i64 d = 0; d < procs; ++d)
          message_matrix_[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(d)] +=
              sf.matrix_row[static_cast<std::size_t>(d)];
        faults_delta += sf.faults_delta;
      }
      faults_applied_ += faults_delta;
      merge_step(merged, std::move(counters));
      ++merged;
    }

    if (first_error) {
      // Grace window: peers failing on the same step report within
      // moments of each other; collecting them lets the arbitration
      // pick the lowest (step, rank) — the serial simulator's order.
      bool all_settled = true;
      for (const RankState& r : ranks)
        if (!r.error && !r.done && !r.eof) all_settled = false;
      if (all_settled ||
          Clock::now() > *first_error + std::chrono::milliseconds(300))
        throw_collected_error();
    }

    bool all_done = merged == nsteps;
    for (const RankState& r : ranks)
      if (!r.done || !r.result) all_done = false;
    if (all_done) break;

    if (Clock::now() > deadline) {
      std::string who;
      for (i64 r = 0; r < procs; ++r) {
        const RankState& rs = ranks[static_cast<std::size_t>(r)];
        if (rs.done) continue;
        who += cat(who.empty() ? "" : ", ", "rank ", r,
                   " (last control-plane message: ", rs.last_msg, ")");
      }
      kill_all();
      throw RuntimeFault(cat("proc run timed out after ", proc_.timeout_ms,
                             " ms; unfinished ranks: ",
                             who.empty() ? "none" : who));
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    for (const Conn& c : pending) fds.push_back(pollfd{c.fd, POLLIN, 0});
    for (const RankState& r : ranks)
      if (r.fd >= 0 && !r.eof) fds.push_back(pollfd{r.fd, POLLIN, 0});
    int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (rc < 0 && errno != EINTR)
      throw RuntimeFault(cat("proc: poll failed: ", std::strerror(errno)));

    if (fds[0].revents & POLLIN) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) pending.push_back(Conn{fd, {}});
    }

    // Anonymous connections: read until HELLO identifies the rank.
    for (std::size_t i = 0; i < pending.size();) {
      Conn& c = pending[i];
      std::uint8_t buf[4096];
      ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) c.split.feed(buf, static_cast<std::size_t>(n));
      if (n == 0) {
        ::close(c.fd);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ControlFrame f;
      if (c.split.next(&f)) {
        if (f.type != MsgType::Hello) {
          ::close(c.fd);
          throw RuntimeFault(cat("proc: expected HELLO, got ",
                                 msg_name(f.type)));
        }
        WireReader r(f.payload.data(), f.payload.size());
        i64 rank = r.get_i64();
        const std::uint32_t elen = r.get_u32();
        require(in_range(rank, 0, procs - 1),
                cat("proc: HELLO from out-of-range rank ", rank));
        RankState& rs = ranks[static_cast<std::size_t>(rank)];
        require(!rs.hello, cat("proc: duplicate HELLO from rank ", rank));
        // Options-propagation check: the worker echoes the build/engine
        // bytes it decoded; any drift between the two processes'
        // pictures of the options is a hard error, not a silent skew.
        bool match = elen == echo.size();
        for (std::uint32_t k = 0; match && k < elen; ++k)
          match = r.get_u8() == echo[k];
        if (!match) {
          ::close(c.fd);
          throw InternalError(
              cat("proc: option propagation mismatch from rank ", rank));
        }
        rs.hello = true;
        rs.fd = c.fd;
        rs.split = std::move(c.split);
        rs.last_msg = "HELLO";
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }

    if (!go_sent) {
      bool all_hello = true;
      for (const RankState& r : ranks)
        if (!r.hello) all_hello = false;
      if (all_hello) {
        for (RankState& r : ranks) send_frame(r.fd, MsgType::Go, {});
        go_sent = true;
      }
      continue;
    }

    for (i64 r = 0; r < procs; ++r) drain(r);
  }

  require(merged == nsteps, "proc: run finished with unmerged steps");
}

std::vector<double> ProcMachine::gather(const std::string& name) const {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(),
          "ProcMachine::gather unknown " + name);
  const decomp::ArrayDesc& desc = it->second;
  auto row_of = [&](i64 rank) -> const std::vector<double>& {
    const auto& rows = rank_rows_[static_cast<std::size_t>(rank)];
    auto row = rows.find(name);
    require(row != rows.end(),
            cat("proc: rank ", rank, " never reported rows for ", name));
    return row->second;
  };
  if (desc.is_replicated()) return row_of(0);
  std::vector<double> dense(static_cast<std::size_t>(desc.total()), 0.0);
  for (i64 p = 0; p < program_.procs; ++p) {
    const std::vector<double>& row = row_of(p);
    rt::for_each_local_run(desc, p, [&](i64 local, i64 at, i64 len) {
      std::copy_n(row.begin() + local, len, dense.begin() + at);
    });
  }
  return dense;
}

std::string ProcMachine::message_matrix_str() const {
  return rt::format_message_matrix(message_matrix_);
}

}  // namespace vcal::proc
