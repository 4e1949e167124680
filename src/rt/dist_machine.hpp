// Distributed-memory SPMD target (Sections 2.7 and 2.10 of the paper).
//
// Simulates a message-passing multicomputer. Execution follows the
// paper's template: every processor first sends the elements it stores
// that other processors' computations need (i in Reside_p \ Modify_p),
// then walks Modify_p, reading remote operands from the messages and
// updating local elements. The pattern of those messages follows from
// the data decomposition alone, so the inspector derives it once per
// clause and layout as a communication schedule
// (spmd/comm_schedule.hpp): each source packs its values positionally
// and each destination reads every operand by offset. Every clause step
// runs one: the first execution at a layout inspects the plan and runs
// the schedule at once, later ones replay it. A clause whose elements
// fault raises the first faulting element's RuntimeFault from the
// inspector and stores no schedule.
//
// Each phase's per-rank body is a rank-local function shared with the
// multi-process worker (rt/rank_step.hpp); this machine runs it for
// every rank over a thread pool (ranks own disjoint counters, buffer
// rows, and local buffers; counters merge serially in rank order so
// statistics are bit-identical to the serial engine). All elements
// flowing between one (src, dst) pair in a clause travel as a single
// bulk message, and clause plans are cached per layout of the arrays a
// clause touches, so they survive redistributions
// (spmd/plan_cache.hpp).
//
// The simulator counts messages, local/remote reads, loop iterations and
// membership tests per rank, and charges them to a CostModel; sim_time is
// the sum over steps of the slowest rank (the SPMD makespan).
//
// Restrictions: '•' (sequential) clauses are rejected on this target —
// the paper notes they induce DOACROSS-style synchronization, which it
// (and we) leave out of scope.
#pragma once

#include <memory>
#include <unordered_map>

#include "gen/optimizer.hpp"
#include "obs/trace.hpp"
#include "rt/cost_model.hpp"
#include "rt/engine_context.hpp"
#include "rt/engine_options.hpp"
#include "rt/rank_step.hpp"
#include "rt/store.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"
#include "support/thread_pool.hpp"

namespace vcal::rt {

struct DistStats {
  i64 messages = 0;      // element transfers between distinct ranks
  i64 bulk_messages = 0; // aggregated (src,dst) messages carrying them
  i64 redist_messages = 0; // subset of messages moved by redistributions
  i64 local_reads = 0;   // operand reads satisfied locally
  i64 remote_reads = 0;  // operand reads satisfied by a message
                         // (conservation: messages == remote_reads
                         //  + redist_messages)
  i64 iterations = 0;    // loop-body entries, all ranks, all phases
  i64 tests = 0;         // run-time membership tests / probes
  i64 halo_messages = 0; // bulk halo-exchange messages (overlap support)
  i64 halo_values = 0;   // elements carried by halo exchanges
  i64 halo_reads = 0;    // remote reads satisfied from a local halo copy
  i64 steps = 0;         // clauses + redistributions executed
  double sim_time = 0.0; // makespan under the cost model

  std::string str() const;
};

/// Adds one step's per-rank counters to `stats`: the merge every
/// distributed driver shares — sums, each halo exchange counted once,
/// and the slowest rank's cost (the SPMD makespan) added to sim_time.
void add_step(DistStats& stats, const std::vector<RankCounters>& counters,
              const CostModel& cost);

/// A messages[src][dst] matrix pretty-printed, one row per source rank.
std::string format_message_matrix(
    const std::vector<std::vector<i64>>& matrix);

class DistMachine {
 public:
  /// `ctx` owns the plan cache, tracer, and JIT engine this machine
  /// uses; pass null (the one-shot CLI path) and the machine creates a
  /// private context with the same lifetime as itself. `plan_scope`
  /// names the plan-cache lease pool within the context, which keeps
  /// each machine kind's pool apart (see EngineContext::acquire_plans);
  /// empty means a private cache.
  explicit DistMachine(spmd::Program program, gen::BuildOptions opts = {},
                       CostModel cost = {}, EngineOptions engine = {},
                       std::shared_ptr<EngineContext> ctx = nullptr,
                       const std::string& plan_scope = {});

  void load(const std::string& name, const std::vector<double>& dense);
  void run();

  /// Dense image reassembled from the distributed pieces.
  std::vector<double> gather(const std::string& name) const;

  const DistStats& stats() const noexcept { return stats_; }

  /// Plan-cache effectiveness (hits/misses/layouts) for benchmarks.
  const spmd::PlanCache& plan_cache() const noexcept { return *plans_; }

  /// Per-element execution-path tally (fused kernel loop / per-element
  /// kernel / schedule replay / jit) accumulated over the run; `interp`
  /// stays 0 here. Reporting only — never part of DistStats.
  const PathCounters& path_counters() const noexcept { return paths_; }

  /// Communication-schedule accounting: inspector builds, replayed
  /// steps, packed/unpacked volumes. Reporting only — never part of
  /// DistStats.
  const CommStats& comm_stats() const noexcept { return comm_; }

  /// JIT native-code accounting: compiles, cache reuse, dispatches
  /// through jitted functions, fallbacks to the bytecode kernel.
  /// Reporting only — never part of DistStats (the `jit` oracle axis
  /// pins that).
  const spmd::JitStats& jit_stats() const noexcept { return jit_; }

  /// The pool this machine runs its ranks on: its own, or the
  /// process-wide one at threads 0; null at threads 1, which runs every
  /// rank inline. Reporting only (`pool:` under vcalc --stats).
  const support::ThreadPool* pool() const {
    if (engine_.threads == 1) return nullptr;
    return pool_ ? pool_.get() : &support::ThreadPool::shared();
  }

  /// Per-rank message counts of the last executed step (for tests and
  /// benchmark reporting).
  const std::vector<RankCounters>& last_step_counters() const noexcept {
    return last_counters_;
  }

  /// messages[src][dst] accumulated over the whole run (element messages
  /// only; halo exchanges are reported separately in stats()).
  const std::vector<std::vector<i64>>& message_matrix() const noexcept {
    return message_matrix_;
  }

  /// Pretty-printed message matrix, one row per source rank.
  std::string message_matrix_str() const;

  /// The attached event tracer (EngineOptions::trace); nullptr when
  /// tracing is off. Lanes 0..procs-1 are ranks, lane procs the engine.
  /// Owned by the EngineContext, so it outlives this machine.
  const obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  void run_clause(const prog::Clause& clause);
  /// A clause step over every rank: positional pack, then replay
  /// by offset with live guard/RHS. `replay` is true for a stored
  /// schedule (a hit), false for the one just inspected.
  void run_scheduled(const spmd::ClausePlan& plan,
                     const spmd::CommSchedule& sched,
                     const spmd::JitFns* jfns, bool replay, i64 step_id);

  void run_redistribute(const spmd::RedistStep& step);
  void finish_step(const std::vector<RankCounters>& counters);

  /// Phase 0: refresh halo rows of every overlapped referenced array
  /// with pre-clause values.
  void refresh_halos(const prog::Clause& clause,
                     const spmd::ClausePlan& plan,
                     const std::vector<std::vector<double>>* snap,
                     i64 step_id);

  /// Runs body(rank) for every rank, honoring engine_.threads. The
  /// threads == 1 path calls the body inline with no std::function
  /// wrapper, so scheduled steady states allocate nothing.
  template <typename F>
  void for_ranks(i64 n, F&& body);

  spmd::Program program_;  // arrays table evolves across redistributions
  gen::BuildOptions opts_;
  CostModel cost_;
  EngineOptions engine_;
  std::shared_ptr<EngineContext> ctx_;         // never null after ctor
  std::unique_ptr<support::ThreadPool> pool_;  // owned when threads > 1
  obs::Tracer* tracer_ = nullptr;       // ctx-owned, set when engine_.trace
  PlanLease plans_;                     // leased from ctx_, never empty
  spmd::PlanLookup lookup_;             // into *plans_
  DistStore store_;
  DistStats stats_;
  std::vector<RankCounters> last_counters_;
  std::vector<std::vector<i64>> message_matrix_;
  PathCounters paths_;
  CommStats comm_;
  spmd::JitStats jit_;

  // Double-buffered, reused packed-value storage: one contiguous value
  // buffer per (src, dst) pair, parity-flipped per step. clear() keeps capacity, so steady-state packing is
  // allocation-free.
  std::vector<std::vector<double>> comm_bufs_[2];
  int comm_parity_ = 0;

  // Halo copies of overlapped arrays: per array, one dense row per rank
  // (left range then right, addressed by ArrayDesc::halo_slot), refreshed
  // in place before every clause that reads the array. `step` marks the
  // step that last refreshed the rows, so arrays read through several
  // refs refresh once. The owner-side counter scratch is reused too: a
  // scheduled halo step allocates nothing.
  struct HaloRows {
    i64 step = -1;
    std::vector<std::vector<double>> rows;
  };
  std::unordered_map<std::string, HaloRows> halos_;
  std::vector<i64> halo_owner_bulk_, halo_owner_values_;  // procs*procs

  // Copy-in snapshot of a clause's LHS array when the clause reads its
  // own target; refilled in place each such step.
  std::vector<std::vector<double>> snap_;

  // Persistent per-step, per-rank scratch: counters, path tallies, and
  // each rank's resolved operand rows.
  std::vector<RankCounters> step_counters_;
  std::vector<PathCounters> step_pcs_;
  std::vector<RankRows> rank_rows_;
};

}  // namespace vcal::rt
