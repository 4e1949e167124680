#include "rt/seq_executor.hpp"

#include <optional>

#include "support/error.hpp"

namespace vcal::rt {

using prog::Clause;

namespace {

// Odometer walk over the full loop ranges of a clause.
template <typename F>
void for_each_tuple(const Clause& clause, F&& body) {
  std::vector<i64> vals;
  vals.reserve(clause.loops.size());
  for (const prog::LoopDim& l : clause.loops) {
    if (l.lo > l.hi) return;
    vals.push_back(l.lo);
  }
  for (;;) {
    body(const_cast<const std::vector<i64>&>(vals));
    std::size_t d = clause.loops.size();
    while (d-- > 0) {
      if (vals[d] < clause.loops[d].hi) {
        ++vals[d];
        break;
      }
      vals[d] = clause.loops[d].lo;
      if (d == 0) return;
    }
  }
}

}  // namespace

SeqExecutor::SeqExecutor(spmd::Program program, bool reference,
                         std::shared_ptr<EngineContext> ctx)
    : SeqExecutor(
          std::make_shared<const spmd::Program>(std::move(program)),
          reference, std::move(ctx)) {}

SeqExecutor::SeqExecutor(std::shared_ptr<const spmd::Program> program,
                         bool reference,
                         std::shared_ptr<EngineContext> ctx,
                         std::shared_ptr<spmd::KernelCache> kernels)
    : program_(std::move(program)),
      reference_(reference),
      ctx_(std::move(ctx)),
      shared_kernels_(std::move(kernels)) {
  program_->validate();
  for (const auto& [name, desc] : program_->arrays) store_.declare(desc);
}

void SeqExecutor::load(const std::string& name,
                       const std::vector<double>& dense) {
  auto it = program_->arrays.find(name);
  require(it != program_->arrays.end(),
          "SeqExecutor::load unknown " + name);
  store_.load(it->second, dense);
}

void SeqExecutor::run() {
  i64 step_id = 0;
  for (const spmd::Step& step : program_->steps) {
    if (const auto* clause = std::get_if<Clause>(&step)) {
      VCAL_TRACE(tracer_, 0, obs::EventKind::ClauseBegin, step_id);
      run_clause(*clause);
      VCAL_TRACE(tracer_, 0, obs::EventKind::ClauseEnd, step_id);
    } else {
      // Redistribution has no effect on dense sequential storage; the
      // trace still marks it so lanes line up across executors.
      VCAL_TRACE(tracer_, 0, obs::EventKind::RedistEpoch, step_id);
    }
    ++step_id;
  }
}

void SeqExecutor::run_clause(const Clause& clause) {
  const decomp::ArrayDesc& lhs = program_->arrays.at(clause.lhs_array);

  bool lhs_read = false;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) lhs_read = true;
  // Copy-in semantics for parallel clauses that read their own target.
  std::optional<std::vector<double>> snap;
  if (lhs_read && clause.ord == prog::Ordering::Par)
    snap = store_.snapshot(clause.lhs_array);

  // Compile (or fetch) the clause's kernel unless in reference mode. A
  // shared cache (serve layer) is preferred; `pinned` keeps its entry
  // alive for the duration of this clause.
  const spmd::ClauseKernel* kern = nullptr;
  std::shared_ptr<const spmd::ClauseKernel> pinned;
  if (!reference_) {
    if (shared_kernels_) {
      pinned = shared_kernels_->get(clause);
      kern = pinned.get();
    } else {
      auto it = kernels_.find(&clause);
      if (it == kernels_.end())
        it = kernels_.emplace(&clause, spmd::ClauseKernel::compile(clause))
                 .first;
      kern = &it->second;
    }
  }
  std::vector<double> stack(
      kern ? static_cast<std::size_t>(kern->stack_need()) : 0);

  std::vector<double> ref_values(clause.refs.size());
  std::vector<i64> out_idx, idx;  // scratch, reused across elements
  for_each_tuple(clause, [&](const std::vector<i64>& vals) {
    if (kern)
      spmd::ClauseKernel::subs_into(kern->lhs_subs(), vals.data(), out_idx);
    else
      prog::eval_subs_into(clause.lhs_subs, vals, out_idx);
    if (!lhs.in_bounds(out_idx)) return;  // outside Modify: not executed
    for (std::size_t r = 0; r < clause.refs.size(); ++r) {
      const prog::ArrayRef& ref = clause.refs[r];
      const decomp::ArrayDesc& rd = program_->arrays.at(ref.array);
      if (kern)
        spmd::ClauseKernel::subs_into(kern->ref_subs(static_cast<int>(r)),
                                      vals.data(), idx);
      else
        prog::eval_subs_into(ref.subs, vals, idx);
      if (snap && ref.array == clause.lhs_array) {
        if (!rd.in_bounds(idx))
          throw RuntimeFault("read out of bounds on " + ref.array);
        ref_values[r] =
            (*snap)[static_cast<std::size_t>(rd.dense_linear(idx))];
      } else {
        ref_values[r] = store_.read(rd, idx);
      }
    }
    if (kern) {
      const spmd::CompiledGuard* g = kern->guard();
      if (g && !g->holds(ref_values.data(), vals.data(), stack.data()))
        return;
      store_.write(lhs, out_idx,
                   kern->rhs().eval(ref_values.data(), vals.data(),
                                    stack.data()));
    } else {
      if (clause.guard && !clause.guard->holds(ref_values, vals)) return;
      store_.write(lhs, out_idx, prog::eval(clause.rhs, ref_values, vals));
    }
  });
}

const std::vector<double>& SeqExecutor::result(
    const std::string& name) const {
  return store_.dense(name);
}

}  // namespace vcal::rt
