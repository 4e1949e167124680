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
// Clause plans are cached across repeated executions until a
// redistribution changes a decomposition.
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
#include "rt/store.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"
#include "support/thread_pool.hpp"

namespace vcal::spmd {
class GatherSchedule;
}

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

  /// Gather-schedule accounting: inspector builds, replayed steps,
  /// forced fallbacks. Reporting only — never part of SharedStats.
  const CommStats& comm_stats() const noexcept { return comm_; }

  /// JIT native-code accounting: compiles, cache reuse, dispatches
  /// through jitted functions, fallbacks to the bytecode kernel.
  /// Reporting only — never part of SharedStats (the `jit` oracle axis
  /// pins that).
  const spmd::JitStats& jit_stats() const noexcept { return jit_; }

  /// The attached event tracer (EngineOptions::trace); nullptr when
  /// tracing is off. Lanes 0..procs-1 are ranks, lane procs the engine.
  /// Owned by the EngineContext, so it outlives this machine.
  const obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  /// `rec`, when non-null, is the GatherSchedule being recorded by this
  /// (clean, cached) execution — the inspector half of the split.
  void run_clause(const prog::Clause& clause, const spmd::ClausePlan& plan,
                  spmd::GatherSchedule* rec, const spmd::JitFns* jfns);
  /// Executor half: replays a compiled gather schedule — per virtual
  /// processor, a flat gather over dense-store offsets plus live
  /// guard/RHS evaluation; enumeration statistics replay verbatim.
  void run_clause_gathered(const prog::Clause& clause,
                           const spmd::ClausePlan& plan,
                           const spmd::GatherSchedule& sched,
                           spmd::JitState* js, const spmd::JitFns* jfns);

  /// One JIT arming / dispatch poll for the clause whose plan-cache
  /// entry is `entry` (see DistMachine::jit_poll).
  const spmd::JitFns* jit_poll(spmd::PlanCache::Entry& entry,
                               const prog::Clause& clause,
                               const spmd::ClauseKernel& kern,
                               spmd::JitState** js);
  void run_clause_sequential(const prog::Clause& clause);
  void for_ranks(i64 n, const std::function<void(i64)>& body);

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
};

}  // namespace vcal::rt
