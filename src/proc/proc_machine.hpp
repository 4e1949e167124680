// Multi-process distributed backend: the launcher half.
//
// ProcMachine presents the DistMachine surface — load / run /
// gather / stats / message matrix — but executes the program on P real
// OS processes, one per rank, spawned from a worker binary (`vcalc
// --rank N --channel-dir PATH`). Ranks exchange clause messages over
// mmap'd shared-memory ring channels and report per-step counters over
// a Unix-domain-socket control plane; the launcher replays the
// simulator's deterministic merge (rt::add_step) over the
// reported counters, so a correct backend produces bit-identical
// DistStats, message matrices, and gathered stores. The conformance
// oracle's `proc` axis pins exactly that.
//
// Lifecycle guarantees:
//   - A crashed or wedged worker never hangs the launcher: child exits
//     are reaped inside the poll loop and surface as a RuntimeFault
//     naming the dead rank and its last control-plane message, and the
//     whole run is bounded by ProcOptions::timeout_ms.
//   - Engine errors inside a worker (out-of-bounds, transport timeout,
//     ...) are relayed over the control plane with their exception kind
//     and rethrown here as the same type, lowest (step, rank) first —
//     the order the serial simulator would have thrown.
//   - All spawned processes are killed and reaped on every exit path.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gen/optimizer.hpp"
#include "obs/trace.hpp"
#include "proc/job.hpp"
#include "rt/cost_model.hpp"
#include "rt/dist_machine.hpp"
#include "rt/engine_options.hpp"
#include "spmd/program.hpp"
#include "support/scoped_dir.hpp"

namespace vcal::proc {

struct ProcOptions {
  /// Worker binary. Empty: $VCAL_WORKER_BIN, else this executable
  /// (/proc/self/exe) — vcalc dispatches --rank into worker_main.
  std::string worker_path;
  /// Channel directory holding the job file, rings, and control socket.
  /// Empty: a fresh mkdtemp directory, removed after the run. A given
  /// directory is reused; stale state from a dead run is wiped, but a
  /// directory whose lock file names a live process is refused.
  std::string channel_dir;
  i64 timeout_ms = 60000;  // whole-run budget, and the workers' pump budget
  i64 ring_slots = 1024;   // per-(src,dst) ring capacity in slots
};

/// One rank's trace lane, shipped back in its RESULT frame.
struct RankTraceDump {
  std::vector<obs::TraceEvent> events;
  i64 dropped = 0;
};

class ProcMachine {
 public:
  explicit ProcMachine(std::string source, gen::BuildOptions opts = {},
                       rt::CostModel cost = {},
                       rt::EngineOptions engine = {}, ProcOptions proc = {});
  ~ProcMachine();
  ProcMachine(const ProcMachine&) = delete;
  ProcMachine& operator=(const ProcMachine&) = delete;

  void load(const std::string& name, const std::vector<double>& dense);

  /// Spawns the workers, runs the program, collects results. One-shot.
  void run();

  std::vector<double> gather(const std::string& name) const;

  const rt::DistStats& stats() const noexcept { return stats_; }
  i64 procs() const noexcept { return program_.procs; }
  const std::vector<rt::RankCounters>& last_step_counters() const noexcept {
    return last_counters_;
  }
  const std::vector<std::vector<i64>>& message_matrix() const noexcept {
    return message_matrix_;
  }
  std::string message_matrix_str() const;

  /// Per-rank trace lanes (EngineOptions::trace); empty otherwise.
  const std::vector<RankTraceDump>& rank_traces() const noexcept {
    return traces_;
  }

  /// The directory actually used for this run's channels (resolved in
  /// run(); empty before).
  const std::string& channel_dir() const noexcept { return dir_; }

  /// Worker-binary resolution: explicit path, else $VCAL_WORKER_BIN,
  /// else /proc/self/exe.
  static std::string resolve_worker(const std::string& explicit_path);

 private:
  struct StepFrame {
    i64 step = 0;
    rt::RankCounters counters;
    std::vector<i64> matrix_row;
  };
  struct RankState;  // poll-loop bookkeeping (defined in the .cpp)

  void prepare_dir();
  void cleanup_dir();
  void merge_step(i64 step, std::vector<rt::RankCounters> counters);

  std::string source_;
  spmd::Program program_;  // arrays table evolves across redistributions
  gen::BuildOptions opts_;
  rt::CostModel cost_;
  rt::EngineOptions engine_;
  ProcOptions proc_;
  std::vector<std::pair<std::string, std::vector<double>>> inputs_;

  std::string dir_;
  // Owns dir_ when this machine mkdtemp'd it (no channel_dir given):
  // the RAII destructor removes the tree on every exit path, including
  // a prepare/launch failure mid-run(). Caller-provided directories are
  // wiped but left on disk.
  support::ScopedDir owned_dir_;
  bool ran_ = false;

  rt::DistStats stats_;
  std::vector<rt::RankCounters> last_counters_;
  std::vector<std::vector<i64>> message_matrix_;
  std::vector<std::map<std::string, std::vector<double>>> rank_rows_;
  std::vector<RankTraceDump> traces_;
};

}  // namespace vcal::proc
