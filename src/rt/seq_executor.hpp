// Sequential reference executor.
//
// Runs a program on dense arrays with no decomposition at all: the
// semantic ground truth every parallel target must reproduce. Parallel
// ('//') clauses use copy-in semantics (all reads observe pre-clause
// state); sequential ('•') clauses execute in lexicographic order with
// immediate visibility. Redistribution steps are no-ops here (layout has
// no sequential meaning).
//
// Clause bodies evaluate through compiled kernels (bytecode RHS/guard,
// subscript records; see spmd/kernel.hpp) unless constructed in
// reference mode, which walks the prog::Expr / fn::Sym trees directly.
// Reference mode is the conformance oracle's independent ground truth:
// no other executor keeps a tree-walking path.
#pragma once

#include <memory>
#include <unordered_map>

#include "obs/trace.hpp"
#include "rt/engine_context.hpp"
#include "rt/store.hpp"
#include "spmd/kernel.hpp"
#include "spmd/program.hpp"

namespace vcal::rt {

class SeqExecutor {
 public:
  /// `ctx` (may be null) pins the EngineContext whose tracer this
  /// executor is attached to — the sequential path uses no plan cache
  /// or JIT, but a served execution must keep the tracer's owner alive.
  explicit SeqExecutor(spmd::Program program, bool reference = false,
                       std::shared_ptr<EngineContext> ctx = nullptr);

  /// Shares an already-validated program instead of copying it (the
  /// sequential path never mutates it — redistribution is a no-op
  /// here). `kernels`, when non-null, memoizes compiled clause kernels
  /// across every executor constructed over the same program; the
  /// serve layer passes its compile-cache entry's KernelCache so warm
  /// requests skip kernel builds along with parse/rewrite/plan.
  explicit SeqExecutor(std::shared_ptr<const spmd::Program> program,
                       bool reference = false,
                       std::shared_ptr<EngineContext> ctx = nullptr,
                       std::shared_ptr<spmd::KernelCache> kernels = nullptr);

  /// Attach a trace sink (not owned; may be nullptr). The sequential
  /// executor has one lane of interest — lane 0 carries a clause span
  /// per executed step and a redist-epoch instant per redistribution.
  void attach_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Overwrites an array with a dense row-major image.
  void load(const std::string& name, const std::vector<double>& dense);

  /// Executes every step.
  void run();

  /// Dense row-major image of an array after run().
  const std::vector<double>& result(const std::string& name) const;

 private:
  void run_clause(const prog::Clause& clause);

  std::shared_ptr<const spmd::Program> program_;
  DenseStore store_;
  bool reference_;
  std::shared_ptr<EngineContext> ctx_;  // may be null (no tracer owner)
  obs::Tracer* tracer_ = nullptr;  // optional attached sink, not owned
  // Kernels memoized per clause (step addresses are stable for the
  // lifetime of *program_). `shared_kernels_` (when set) is consulted
  // first and outlives this executor; `kernels_` is the private
  // fallback for the copying constructor.
  std::shared_ptr<spmd::KernelCache> shared_kernels_;
  std::unordered_map<const prog::Clause*, spmd::ClauseKernel> kernels_;
};

}  // namespace vcal::rt
