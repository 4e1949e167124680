// Shared-memory SPMD target (Section 2.9 of the paper).
//
// Executes the paper's shared-memory template with real threads:
//
//   p := my_node;
//   forall i in Modify_p do A[f(i)] := Expr(B[g(i)]); od;
//   barrier;
//
// All arrays live in one shared dense store; per clause, every virtual
// processor iterates its Modify_p schedule on the engine's thread pool
// (no per-clause thread spawns), and the join is the barrier. Ownership
// partitioning makes writes disjoint, so no locking is needed; parallel
// clauses that read their own target take a copy-in snapshot first.
//
// This is the distributed template without the communication, and it
// runs on the same pieces (rt/rank_step.hpp). Clause plans are cached
// per layout of the clause's arrays (spmd/plan_cache.hpp). The first
// clean execution at a layout walks each Modify_p (rt::walk_modify over
// the dense image) and records a spmd::CommSchedule while it executes
// the step; every later execution at that layout replays the schedule
// through rt::replay_rank, with the dense buffers as operand rows.
//
// Redistribution steps move no data here (memory is shared) but do change
// the ownership partitioning of subsequent clauses.
#pragma once

#include <memory>

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

struct SharedStats {
  i64 barriers = 0;         // barriers the generated program performs
  i64 barriers_elided = 0;  // barriers removed by the footnote-1 analysis
  i64 iterations = 0;       // loop-body entries, all ranks
  i64 tests = 0;            // run-time membership tests, all ranks
  double sim_time = 0.0;    // sum over steps of the slowest rank's time

  /// One-line rendering via the obs::MetricsRegistry.
  std::string str() const;
};

class SharedMachine {
 public:
  /// `elide_barriers` enables the paper's footnote-1 intra-statement
  /// optimization: the barrier between consecutive clauses is dropped
  /// whenever spmd::barrier_needed proves every cross-clause dependence
  /// stays processor-local.
  /// `ctx`/`plan_scope`: see DistMachine — null ctx means a private
  /// context owned by this machine alone.
  explicit SharedMachine(spmd::Program program, gen::BuildOptions opts = {},
                         CostModel cost = {}, bool elide_barriers = false,
                         EngineOptions engine = {},
                         std::shared_ptr<EngineContext> ctx = nullptr,
                         const std::string& plan_scope = {});

  void load(const std::string& name, const std::vector<double>& dense);
  void run();
  const std::vector<double>& result(const std::string& name) const;
  const SharedStats& stats() const noexcept { return stats_; }

  /// Plan-cache effectiveness (hits/misses/layouts) for benchmarks.
  const spmd::PlanCache& plan_cache() const noexcept { return *plans_; }

  /// Per-element execution-path tally (fused kernel loop / per-element
  /// kernel / schedule replay / jit) accumulated over the run; `interp`
  /// stays 0 here. Reporting only — never part of SharedStats.
  const PathCounters& path_counters() const noexcept { return paths_; }

  /// Schedule accounting: recorded schedules and replayed steps (shared
  /// records and never falls back, so the other fields stay 0).
  /// Reporting only — never part of SharedStats.
  const CommStats& comm_stats() const noexcept { return comm_; }

  /// JIT native-code accounting: compiles, cache reuse, dispatches
  /// through jitted functions, fallbacks to the bytecode kernel.
  /// Reporting only — never part of SharedStats (the `jit` oracle axis
  /// pins that).
  const spmd::JitStats& jit_stats() const noexcept { return jit_; }

  /// The pool this machine runs its ranks on: its own, or the
  /// process-wide one at threads 0; null at threads 1, which runs every
  /// rank inline. Reporting only (`pool:` under vcalc --stats).
  const support::ThreadPool* pool() const {
    if (engine_.threads == 1) return nullptr;
    return pool_ ? pool_.get() : &support::ThreadPool::shared();
  }

  /// The attached event tracer (EngineOptions::trace); nullptr when
  /// tracing is off. Lanes 0..procs-1 are ranks, lane procs the engine.
  /// Owned by the EngineContext, so it outlives this machine.
  const obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  /// One parallel clause at the layout of `entry`: replays the entry's
  /// schedule, or walks every rank's Modify_p and records one into the
  /// entry.
  void run_clause(const prog::Clause& clause, spmd::PlanCache::Entry& entry,
                  const spmd::JitFns* jfns);
  /// Rank p's Modify_p walk over the dense image, writing into `out`
  /// and recording into `rec`.
  void walk_rank(const spmd::ClausePlan& plan, i64 p,
                 spmd::CommSchedule& rec, std::vector<double>& out,
                 i64 step_id);

  void run_clause_sequential(const prog::Clause& clause);
  template <typename F>
  void for_ranks(i64 n, F&& body);

  spmd::Program program_;  // arrays table evolves across redistributions
  gen::BuildOptions opts_;
  CostModel cost_;
  bool elide_barriers_;
  EngineOptions engine_;
  std::shared_ptr<EngineContext> ctx_;         // never null after ctor
  std::unique_ptr<support::ThreadPool> pool_;  // owned when threads > 1
  obs::Tracer* tracer_ = nullptr;       // ctx-owned, set when engine_.trace
  PlanLease plans_;                     // leased from ctx_, never empty
  spmd::PlanLookup lookup_;             // into *plans_
  DenseStore store_;
  SharedStats stats_;
  PathCounters paths_;
  CommStats comm_;
  spmd::JitStats jit_;
  i64 trace_step_ = 0;  // executed-step ordinal for trace event ids

  // Persistent per-step scratch: the copy-in snapshot of a clause that
  // reads its own target, and per rank its operand rows, counters and
  // path tallies.
  std::vector<double> copy_in_;
  std::vector<RankRows> rank_rows_;
  std::vector<RankCounters> step_counters_;
  std::vector<PathCounters> step_pcs_;
};

}  // namespace vcal::rt
