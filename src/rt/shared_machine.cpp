#include "rt/shared_machine.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "spmd/barrier.hpp"
#include "spmd/comm_schedule.hpp"
#include "support/error.hpp"

namespace vcal::rt {

using prog::Clause;
using spmd::ClausePlan;

std::string SharedStats::str() const {
  obs::MetricsRegistry reg;
  obs::collect(reg, *this);
  return reg.line();
}

SharedMachine::SharedMachine(spmd::Program program, gen::BuildOptions opts,
                             CostModel cost, bool elide_barriers,
                             EngineOptions engine,
                             std::shared_ptr<EngineContext> ctx,
                             const std::string& plan_scope)
    : program_(std::move(program)),
      opts_(opts),
      cost_(cost),
      elide_barriers_(elide_barriers),
      engine_(engine),
      ctx_(ctx ? std::move(ctx) : std::make_shared<EngineContext>()),
      plans_(ctx_, plan_scope, PlanKind::Shared),
      lookup_(*plans_) {
  program_.validate();
  if (engine_.threads > 1)
    pool_ = std::make_unique<support::ThreadPool>(engine_.threads);
  if (engine_.trace) {
    tracer_ = ctx_->make_tracer(program_.procs, engine_.trace_capacity);
    plans_->set_tracer(tracer_, tracer_->control_lane());
  }
  for (const auto& [name, desc] : program_.arrays) store_.declare(desc);
}

void SharedMachine::load(const std::string& name,
                         const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(),
          "SharedMachine::load unknown " + name);
  store_.load(it->second, dense);
}

template <typename F>
void SharedMachine::for_ranks(i64 n, F&& body) {
  if (engine_.threads == 1) {
    for (i64 r = 0; r < n; ++r) body(r);
    return;
  }
  support::ThreadPool& pool =
      pool_ ? *pool_ : support::ThreadPool::shared();
  pool.parallel_for_ranks(n, body);
}

void SharedMachine::run() {
  // Each clause ends with a barrier; the footnote-1 analysis may prove
  // the barrier between two consecutive parallel clauses unnecessary.
  // `pending` is the plan of the last clause whose trailing barrier has
  // not been accounted yet (null = not analyzable: keep). Cached plans
  // are never rebuilt, so the pointer stays valid.
  const ClausePlan* pending = nullptr;
  bool pending_exists = false;

  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;

  auto resolve_pending = [&](const ClausePlan* next) {
    if (!pending_exists) return;
    bool keep = true;
    if (elide_barriers_ && pending && next)
      keep = spmd::barrier_needed(*pending, *next);
    if (keep) {
      ++stats_.barriers;
      stats_.sim_time += cost_.per_barrier;
      if (tr) tr->set_virtual_time(stats_.sim_time);
    } else {
      ++stats_.barriers_elided;
    }
    VCAL_TRACE(tr, ctl, obs::EventKind::Barrier, /*step=*/-1,
               /*performed=*/keep ? 1 : 0);
    pending = nullptr;
    pending_exists = false;
  };

  for (const spmd::Step& step : program_.steps) {
    if (const auto* clause = std::get_if<Clause>(&step)) {
      if (clause->ord == prog::Ordering::Seq) {
        resolve_pending(nullptr);
        run_clause_sequential(*clause);
        pending = nullptr;
        pending_exists = true;  // unanalyzable: barrier stays
      } else {
        spmd::PlanCache::Entry& entry =
            lookup_.get(*clause, program_.arrays, opts_);
        const ClausePlan& plan = entry.plan;
        resolve_pending(&plan);
        // JIT dispatch: poll the entry's state once per execution
        // (arming counter, compile status, pointer swap).
        const spmd::JitFns* jfns = nullptr;
        if (engine_.jit)
          jfns = ctx_->poll_jit(entry, *clause, engine_, jit_, tr,
                                trace_step_);
        run_clause(*clause, entry, jfns);
        pending = &plan;
        pending_exists = true;
      }
    } else {
      // Shared memory: redistribution only changes future ownership, but
      // it is a synchronization point for the analysis, and later
      // clauses look their plans up under the new layout.
      resolve_pending(nullptr);
      const auto& redist = std::get<spmd::RedistStep>(step);
      program_.arrays.insert_or_assign(redist.array, redist.new_desc);
      const spmd::LayoutId layout = lookup_.relayout(redist.new_desc);
      ++stats_.barriers;
      stats_.sim_time += cost_.per_barrier;
      if (tr) {
        tr->set_virtual_time(stats_.sim_time);
        tr->record(ctl, obs::EventKind::RedistEpoch, trace_step_, layout);
      }
      ++trace_step_;
    }
  }
  resolve_pending(nullptr);  // the final barrier is always performed
}

// One parallel clause. Schedule dispatch (see comm_schedule.hpp): a step
// whose plan entry holds a schedule replays it — per rank, rt::replay_rank
// over the dense rows, reading every operand by offset with guards and
// right-hand sides evaluated live. Otherwise every rank walks its
// Modify_p and records the schedule while it executes. The recorded
// counters replay verbatim, keeping SharedStats bit-identical to the
// walk.
void SharedMachine::run_clause(const Clause& clause,
                               spmd::PlanCache::Entry& entry,
                               const spmd::JitFns* jfns) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = trace_step_;
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);
  const ClausePlan& plan = entry.plan;
  const i64 procs = plan.procs();
  const std::size_t nrefs = clause.refs.size();

  const auto* sched =
      static_cast<const spmd::CommSchedule*>(entry.sched.get());

  // Persistent per-step scratch, sized on the first clause: a scheduled
  // steady state allocates nothing.
  if (static_cast<i64>(rank_rows_.size()) != procs) {
    rank_rows_.resize(static_cast<std::size_t>(procs));
    step_counters_.resize(static_cast<std::size_t>(procs));
    step_pcs_.resize(static_cast<std::size_t>(procs));
  }
  for (PathCounters& c : step_pcs_) c = PathCounters{};

  // Reads come from the copy-in snapshot (self-reads) or the shared
  // dense buffer; writes go to the (disjointly partitioned) LHS buffer.
  const std::vector<double>* snap = nullptr;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) {
      const std::vector<double>& cur = store_.dense(clause.lhs_array);
      copy_in_.assign(cur.begin(), cur.end());
      snap = &copy_in_;
      break;
    }
  for (RankRows& rr : rank_rows_) {
    rr.rows.resize(nrefs);
    rr.halo.assign(nrefs, nullptr);
    for (std::size_t r = 0; r < nrefs; ++r) {
      const std::string& name = clause.refs[r].array;
      rr.rows[r] = snap && name == clause.lhs_array ? snap
                                                    : &store_.dense(name);
    }
  }
  std::vector<double>& out = store_.buffer(clause.lhs_array);

  // Ownership partitioning makes writes disjoint; the pool's join is the
  // template's barrier (whether the generated program would need it is
  // accounted in run()).
  if (sched) {
    for_ranks(procs, [&](i64 p) {
      const auto up = static_cast<std::size_t>(p);
      replay_rank(*sched, plan, RankSite{p, tr, p, step_id}, rank_rows_[up],
                  nullptr, 0, out, jfns, step_pcs_[up]);
    });
    ++comm_.sched_hits;
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedHit, step_id);
  } else {
    // Recording passes run the bytecode loop while the note_* hooks
    // note every element and run the replay will execute.
    auto rec = std::make_unique<spmd::CommSchedule>();
    rec->init(procs, static_cast<int>(clause.loops.size()),
              static_cast<int>(nrefs));
    for_ranks(procs, [&](i64 p) { walk_rank(plan, p, *rec, out, step_id); });
    rec->counters = step_counters_;
    ++comm_.sched_builds;
    entry.sched = std::move(rec);
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedBuild, step_id,
               plans_->schedules());
  }

  for (const PathCounters& c : step_pcs_) paths_ += c;
  double slowest = 0.0;
  i64 iters = 0, tests = 0;
  for (const RankCounters& c : sched ? sched->counters : step_counters_) {
    slowest = std::max(slowest, cost_.compute_cost(c.iterations, c.tests));
    iters += c.iterations;
    tests += c.tests;
  }
  stats_.iterations += iters;
  stats_.tests += tests;
  stats_.sim_time += slowest;
  if (tr) {
    for (i64 p = 0; p < procs; ++p) {
      const PathCounters& c = step_pcs_[static_cast<std::size_t>(p)];
      tr->record(p, obs::EventKind::KernelPath, step_id, c.fused, c.generic,
                 c.interp, c.sched);
    }
    tr->set_virtual_time(stats_.sim_time);
    tr->record(ctl, obs::EventKind::StepCounters, step_id, iters, tests, 0,
               0);
    tr->record(ctl, obs::EventKind::ClauseEnd, step_id);
  }
  ++trace_step_;
}

// Rank p's share of a recording step over the dense image: the element
// body (bounds checks, dense operand reads, guard, RHS, dense write),
// noting each element into `rec`, and the fused body (a check-free
// bytecode loop), noting its run as one — the walk's strided runs and
// the in-bounds prefix of every piecewise-affine stretch alike. Guards
// are evaluated on replay, so guarded-off elements are noted too.
void SharedMachine::walk_rank(const ClausePlan& plan, i64 p,
                              spmd::CommSchedule& rec,
                              std::vector<double>& out, i64 step_id) {
  obs::Tracer* tr = tracer_;
  VCAL_TRACE(tr, p, obs::EventKind::ClauseBegin, step_id);
  const Clause& clause = plan.clause();
  const spmd::ClauseKernel& kern = plan.kernel();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int nloops = static_cast<int>(clause.loops.size());
  const int inner = nloops - 1;
  RankRows& rr = rank_rows_[static_cast<std::size_t>(p)];
  // Rank-local tally, published once at the end: the other ranks' slots
  // share cache lines with this one.
  PathCounters pc;
  rr.refs.resize(static_cast<std::size_t>(nrefs));
  rr.stack.resize(static_cast<std::size_t>(kern.stack_need()));
  rr.bases.resize(static_cast<std::size_t>(nrefs));
  for (int r = 0; r < nrefs; ++r)
    rr.bases[static_cast<std::size_t>(r)] =
        rr.rows[static_cast<std::size_t>(r)]->data();
  double* refs = rr.refs.data();
  double* stack = rr.stack.data();
  const spmd::CompiledGuard* guard = kern.guard();
  const spmd::CompiledExpr& rhs = kern.rhs();
  std::vector<i64> out_idx, idx;  // per-rank scratch
  // A clause that is not piecewise affine has no runs: every element is
  // a record.
  if (!kern.piecewise()) rec.reserve(p, plan.modify_space(p).count());

  auto element = [&](const std::vector<i64>& vals) {
    ++pc.generic;
    spmd::ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), out_idx);
    if (!lhs.in_bounds(out_idx))
      throw RuntimeFault("write out of bounds on " + clause.lhs_array);
    for (int r = 0; r < nrefs; ++r) {
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), idx);
      if (!rd.in_bounds(idx))
        throw RuntimeFault("read out of bounds on " +
                           clause.refs[static_cast<std::size_t>(r)].array);
      const i64 off = rd.dense_linear(idx);
      refs[r] = rr.bases[static_cast<std::size_t>(r)][off];
      rec.note_local(p, r, off);
    }
    const i64 slot = lhs.dense_linear(out_idx);
    rec.note_element(p, slot, vals.data());
    if (guard && !guard->holds(refs, vals.data(), stack)) return;
    out[static_cast<std::size_t>(slot)] = rhs.eval(refs, vals.data(), stack);
  };
  auto fused = [&](std::vector<i64>& vals, const spmd::FusedRun& f) {
    rec.note_run(p, vals.data(), f);
    i64 la = f.la, v = f.v0;
    for (i64 k = 0; k < f.n; ++k) {
      vals[static_cast<std::size_t>(inner)] = v;
      for (int r = 0; r < nrefs; ++r) {
        refs[r] = rr.bases[static_cast<std::size_t>(r)][f.raddr[r]];
        f.raddr[r] += f.rstride[r];
      }
      if (!guard || guard->holds(refs, vals.data(), stack))
        out[static_cast<std::size_t>(la)] = rhs.eval(refs, vals.data(), stack);
      la += f.lstride;
      v += f.vstride;
    }
    pc.fused += f.n;
  };
  // Every access is affine along a stretch: each leaves its array first
  // at the end of its in-bounds prefix (the LHS checked before the refs,
  // as the element body does), and its dense offset is a progression,
  // so the elements ahead of the first fault are a strided run over the
  // dense image and go through the fused body. The dense weights are
  // laid out at the rank's first stretch, in its order.
  const auto accesses = static_cast<std::size_t>(nrefs + 1);
  auto desc = [&](std::size_t a) -> const decomp::ArrayDesc& {
    return a == 0 ? lhs : plan.ref_desc(static_cast<int>(a) - 1);
  };
  std::vector<i64> weight, off, step;  // per access dimension; access
  auto stretch = [&](std::vector<i64>& vals, const Stretch& s) {
    if (weight.empty()) {
      weight.resize(static_cast<std::size_t>(s.at[accesses]));
      off.resize(accesses);
      step.resize(accesses);
      for (std::size_t a = 0; a < accesses; ++a) {
        i64 w = 1;
        for (int d = desc(a).ndims() - 1; d >= 0; --d) {
          weight[static_cast<std::size_t>(s.at[a] + d)] = w;
          w *= desc(a).size(d);
        }
      }
    }
    i64 clean = s.n;
    int fault = -1;  // the access that faults at element `clean`
    for (std::size_t a = 0; a < accesses; ++a) {
      const decomp::ArrayDesc& d = desc(a);
      const i64* g0 = s.g0 + s.at[a];
      const i64* dg = s.dg + s.at[a];
      const i64* w = weight.data() + s.at[a];
      const i64 prefix = spmd::in_bounds_prefix(d, g0, dg, s.n);
      if (prefix < clean) {
        clean = prefix;
        fault = static_cast<int>(a);
      }
      off[a] = step[a] = 0;
      for (int k = 0; k < d.ndims(); ++k) {
        off[a] += (g0[k] - d.lo(k)) * w[k];
        step[a] += dg[k] * w[k];
      }
    }
    if (clean > 0) {
      spmd::FusedRun f;
      f.v0 = vals[static_cast<std::size_t>(inner)];
      f.vstride = s.vstride;
      f.n = clean;
      f.la = off[0];
      f.lstride = step[0];
      f.raddr = off.data() + 1;
      f.rstride = step.data() + 1;
      fused(vals, f);
    }
    if (fault == 0)
      throw RuntimeFault("write out of bounds on " + clause.lhs_array);
    if (fault > 0)
      throw RuntimeFault("read out of bounds on " +
                         clause.refs[static_cast<std::size_t>(fault - 1)].array);
  };
  gen::EnumStats es;
  walk_modify(plan, p, /*dense=*/true, &es, element, stretch, fused);
  step_pcs_[static_cast<std::size_t>(p)] = pc;
  RankCounters& c = step_counters_[static_cast<std::size_t>(p)];
  c = RankCounters{};
  c.iterations = es.loop_iters;
  c.tests = es.tests;
  VCAL_TRACE(tr, p, obs::EventKind::ClauseEnd, step_id);
}

void SharedMachine::run_clause_sequential(const Clause& clause) {
  // '•' ordering: one processor walks the whole nest in lexicographic
  // order with immediate visibility, then everyone synchronizes.
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = trace_step_;
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);
  const ClausePlan& plan = plans_->get(clause, program_.arrays, opts_);
  const decomp::ArrayDesc& lhs = plan.lhs_desc();

  std::vector<double> ref_values(clause.refs.size());
  std::vector<i64> out_idx, idx;  // scratch
  gen::EnumStats s;
  // A full-range space: rank ownership is ignored under '•'.
  std::vector<gen::Schedule> dims;
  for (const prog::LoopDim& l : clause.loops) {
    if (l.lo > l.hi) {
      VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
      ++trace_step_;
      return;
    }
    dims.push_back(gen::Schedule::closed_form(
        gen::Method::Replicated, {{l.lo, l.hi - l.lo + 1, 1}}));
  }
  spmd::IterationSpace space{std::move(dims)};
  space.for_each(
      [&](const std::vector<i64>& vals) {
        plan.lhs_index_into(vals, out_idx);
        if (!lhs.in_bounds(out_idx)) return;
        for (std::size_t r = 0; r < clause.refs.size(); ++r) {
          plan.ref_index_into(static_cast<int>(r), vals, idx);
          ref_values[r] = store_.read(plan.ref_desc(static_cast<int>(r)),
                                      idx);
        }
        if (clause.guard && !clause.guard->holds(ref_values, vals)) return;
        store_.write(lhs, out_idx, prog::eval(clause.rhs, ref_values, vals));
      },
      &s);
  stats_.iterations += s.loop_iters;
  stats_.tests += s.tests;
  stats_.sim_time += cost_.compute_cost(s.loop_iters, s.tests);
  if (tr) {
    tr->set_virtual_time(stats_.sim_time);
    tr->record(ctl, obs::EventKind::StepCounters, step_id, s.loop_iters,
               s.tests, 0, 0);
    tr->record(ctl, obs::EventKind::ClauseEnd, step_id);
  }
  ++trace_step_;
}

const std::vector<double>& SharedMachine::result(
    const std::string& name) const {
  return store_.dense(name);
}

}  // namespace vcal::rt
