#include "rt/shared_machine.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "spmd/barrier.hpp"
#include "spmd/comm_schedule.hpp"
#include "spmd/kernel.hpp"
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
      plans_(ctx_, plan_scope),
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

void SharedMachine::for_ranks(i64 n,
                              const std::function<void(i64)>& body) {
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
        // (arming counter, compile status, pointer swap). Requires an
        // affine kernel.
        spmd::JitState* js = nullptr;
        const spmd::JitFns* jfns = nullptr;
        if (engine_.jit && plan.kernel().affine())
          jfns = jit_poll(entry, *clause, plan.kernel(), &js);
        // Gather-schedule dispatch (see comm_schedule.hpp): replay when
        // the entry holds a schedule, otherwise enumerate and record one.
        if (engine_.comm_schedules && entry.sched) {
          run_clause_gathered(
              *clause, plan,
              static_cast<const spmd::GatherSchedule&>(*entry.sched), js,
              jfns);
        } else {
          std::unique_ptr<spmd::GatherSchedule> rec;
          if (engine_.comm_schedules) {
            rec = std::make_unique<spmd::GatherSchedule>();
            rec->init(plan.procs(), static_cast<int>(clause->loops.size()),
                      static_cast<int>(clause->refs.size()));
          }
          // Recording steps run the bytecode loop: the note_* hooks
          // have to observe every element the inspector will replay.
          run_clause(*clause, plan, rec.get(), rec ? nullptr : jfns);
          if (rec) {
            ++comm_.sched_builds;
            entry.sched = std::move(rec);
            VCAL_TRACE(tr, ctl, obs::EventKind::SchedBuild, trace_step_ - 1,
                       plans_->schedules());
          }
        }
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

const spmd::JitFns* SharedMachine::jit_poll(spmd::PlanCache::Entry& entry,
                                            const Clause& clause,
                                            const spmd::ClauseKernel& kern,
                                            spmd::JitState** js) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const bool fresh = !entry.jit;
  if (fresh) entry.jit = std::make_shared<spmd::JitState>();
  if (!ctx_->jit().available()) {
    // No toolchain on this host: never arm (see DistMachine::jit_poll).
    if (fresh) ++jit_.fallbacks;
    return nullptr;
  }
  spmd::JitConfig cfg;
  cfg.enabled = true;
  cfg.threshold = engine_.jit_threshold;
  cfg.sync = engine_.jit_sync;
  cfg.cache_dir = engine_.jit_cache_dir;
  cfg.engine = &ctx_->jit();
  spmd::JitPoll r = entry.jit->poll(clause, kern, cfg, jit_);
  if (r.launched)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitBuild, trace_step_,
               cfg.sync ? 1 : 0);
  if (r.swapped)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitSwap, trace_step_,
               r.cached ? 0 : 1);
  *js = entry.jit.get();
  return r.fns;
}

void SharedMachine::run_clause(const Clause& clause, const ClausePlan& plan,
                               spmd::GatherSchedule* rec,
                               const spmd::JitFns* jfns) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = trace_step_;
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;

  // Kernel path: bytecode RHS/guard and subscript records (see
  // spmd/kernel.hpp). Shared memory addresses every array densely, so
  // the strided-run analysis of affine clauses only has to prove
  // bounds, not residency.
  const spmd::ClauseKernel& kern = plan.kernel();
  const bool kaff = kern.affine();

  bool lhs_read = false;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) lhs_read = true;
  std::optional<std::vector<double>> snap;
  if (lhs_read) snap = store_.snapshot(clause.lhs_array);

  std::vector<gen::EnumStats> rank_stats(static_cast<std::size_t>(procs));
  std::vector<PathCounters> pcs(static_cast<std::size_t>(procs));

  // Ownership partitioning makes writes disjoint; the pool's join is the
  // template's barrier (whether the generated program would need it is
  // accounted in run()).
  for_ranks(procs, [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::ClauseBegin, step_id);
    std::vector<double> ref_values(clause.refs.size());
    std::vector<i64> out_idx, idx;  // per-rank scratch
    // Hoist the string-keyed buffer lookups out of the element loop:
    // reads come from the copy-in snapshot (self-reads) or the shared
    // dense buffer; writes go to the (disjointly partitioned) LHS buffer.
    std::vector<const std::vector<double>*> rows(clause.refs.size());
    for (std::size_t r = 0; r < clause.refs.size(); ++r)
      rows[r] = snap && clause.refs[r].array == clause.lhs_array
                    ? &*snap
                    : &store_.dense(clause.refs[r].array);
    std::vector<double>& out_buf = store_.buffer(clause.lhs_array);
    const spmd::IterationSpace& space = plan.modify_space(p);
    PathCounters& pc = pcs[static_cast<std::size_t>(p)];
    std::vector<double> stack(static_cast<std::size_t>(kern.stack_need()));
    const spmd::CompiledGuard* guard = kern.guard();
    const spmd::CompiledExpr& rhs = kern.rhs();

    // Strided-run scratch: addressing, progressions, and fused-loop
    // cursors — only affine clauses ever fuse.
    spmd::ArrayAddr lhs_addr;
    std::vector<spmd::ArrayAddr> raddrs;
    std::vector<i64> g0l, dgl;
    std::vector<std::vector<i64>> g0s, dgs;
    std::vector<spmd::StridedRun> rruns;
    std::vector<i64> raddr, rstride;
    std::vector<const double*> row_ptrs;
    if (kaff) {
      const auto n = static_cast<std::size_t>(nrefs);
      lhs_addr = spmd::make_dense_addr(lhs);
      g0l.resize(static_cast<std::size_t>(lhs.ndims()));
      dgl.resize(static_cast<std::size_t>(lhs.ndims()));
      raddrs.reserve(n);
      g0s.resize(n);
      dgs.resize(n);
      for (int r = 0; r < nrefs; ++r) {
        const decomp::ArrayDesc& rd = plan.ref_desc(r);
        raddrs.push_back(spmd::make_dense_addr(rd));
        g0s[static_cast<std::size_t>(r)].resize(
            static_cast<std::size_t>(rd.ndims()));
        dgs[static_cast<std::size_t>(r)].resize(
            static_cast<std::size_t>(rd.ndims()));
      }
      rruns.resize(n);
      raddr.resize(n);
      rstride.resize(n);
      row_ptrs.resize(n);
      for (int r = 0; r < nrefs; ++r)
        row_ptrs[static_cast<std::size_t>(r)] =
            rows[static_cast<std::size_t>(r)]->data();
    }

    // Element-at-a-time body: bounds checks, dense operand reads, guard,
    // RHS, and the dense write.
    auto element = [&](const std::vector<i64>& vals) {
      spmd::ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), out_idx);
      if (!lhs.in_bounds(out_idx))
        throw RuntimeFault("write out of bounds on " + clause.lhs_array);
      for (int r = 0; r < nrefs; ++r) {
        const decomp::ArrayDesc& rd = plan.ref_desc(r);
        spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), idx);
        if (!rd.in_bounds(idx))
          throw RuntimeFault("read out of bounds on " +
                             clause.refs[static_cast<std::size_t>(r)].array);
        i64 off = rd.dense_linear(idx);
        ref_values[static_cast<std::size_t>(r)] =
            (*rows[static_cast<std::size_t>(r)])
                [static_cast<std::size_t>(off)];
        if (rec) rec->note_off(p, off);
      }
      if (rec)
        // Pre-guard: replay evaluates guards live, so guarded-off
        // elements still carry their operand offsets.
        rec->note_element(p, lhs.dense_linear(out_idx), vals.data());
      if (guard &&
          !guard->holds(ref_values.data(), vals.data(), stack.data()))
        return;
      out_buf[static_cast<std::size_t>(lhs.dense_linear(out_idx))] =
          rhs.eval(ref_values.data(), vals.data(), stack.data());
    };

    space.for_each_run(
        [&](std::vector<i64>& vals, const gen::Piece& run) {
          spmd::StridedRun lrun;
          bool fuse = kaff;
          if (fuse) {
            spmd::fill_progression(kern.lhs_subs().affine, vals, inner, run,
                                   g0l.data(), dgl.data());
            fuse = spmd::strided_run(lhs_addr, g0l.data(), dgl.data(),
                                     run.count, &lrun);
          }
          i64 k0 = lrun.k_lo, k1 = lrun.k_hi;
          for (int r = 0; fuse && r < nrefs; ++r) {
            auto ur = static_cast<std::size_t>(r);
            spmd::fill_progression(kern.ref_subs(r).affine, vals, inner, run,
                                   g0s[ur].data(), dgs[ur].data());
            fuse = spmd::strided_run(raddrs[ur], g0s[ur].data(),
                                     dgs[ur].data(), run.count, &rruns[ur]);
            if (fuse) {
              k0 = std::max(k0, rruns[ur].k_lo);
              k1 = std::min(k1, rruns[ur].k_hi);
            }
          }
          fuse = fuse && k0 <= k1;
          if (!fuse) {
            for (i64 k = 0; k < run.count; ++k) {
              vals[static_cast<std::size_t>(inner)] =
                  run.start + k * run.stride;
              element(vals);
            }
            pc.generic += run.count;
            return;
          }
          for (i64 k = 0; k < k0; ++k) {
            vals[static_cast<std::size_t>(inner)] =
                run.start + k * run.stride;
            element(vals);
          }
          // Fused strided loop: every element of [k0, k1] is proven in
          // bounds on both sides, so the body carries no checks, no
          // calls through the plan, and no allocations — strided dense
          // reads, the bytecode evaluator on a preallocated stack, and
          // a strided dense write.
          i64 la = lrun.addr0 + (k0 - lrun.k_lo) * lrun.stride;
          for (int r = 0; r < nrefs; ++r) {
            auto ur = static_cast<std::size_t>(r);
            raddr[ur] =
                rruns[ur].addr0 + (k0 - rruns[ur].k_lo) * rruns[ur].stride;
          }
          i64 v = run.start + k0 * run.stride;
          const i64 fused_n = k1 - k0 + 1;
          if (jfns) {
            // Every element of [k0, k1] is proven in bounds, so the
            // jitted loop needs only the strides: addressing arrives as
            // arguments, the guard/RHS are compiled in.
            for (int r = 0; r < nrefs; ++r)
              rstride[static_cast<std::size_t>(r)] =
                  rruns[static_cast<std::size_t>(r)].stride;
            jfns->fused(out_buf.data(), la, lrun.stride, row_ptrs.data(),
                        raddr.data(), rstride.data(), vals.data(), v,
                        run.stride, fused_n);
            pc.jit += fused_n;
          } else {
            for (i64 k = 0; k < fused_n; ++k) {
              vals[static_cast<std::size_t>(inner)] = v;
              if (rec) {
                rec->note_element(p, la, vals.data());
                for (int r = 0; r < nrefs; ++r)
                  rec->note_off(p, raddr[static_cast<std::size_t>(r)]);
              }
              for (int r = 0; r < nrefs; ++r) {
                auto ur = static_cast<std::size_t>(r);
                ref_values[ur] =
                    (*rows[ur])[static_cast<std::size_t>(raddr[ur])];
                raddr[ur] += rruns[ur].stride;
              }
              if (!guard ||
                  guard->holds(ref_values.data(), vals.data(), stack.data()))
                out_buf[static_cast<std::size_t>(la)] =
                    rhs.eval(ref_values.data(), vals.data(), stack.data());
              la += lrun.stride;
              v += run.stride;
            }
            pc.fused += fused_n;
          }
          for (i64 k = k1 + 1; k < run.count; ++k) {
            vals[static_cast<std::size_t>(inner)] =
                run.start + k * run.stride;
            element(vals);
          }
          pc.generic += run.count - fused_n;
        },
        &rank_stats[static_cast<std::size_t>(p)]);
    VCAL_TRACE(tr, p, obs::EventKind::KernelPath, step_id, pc.fused,
               pc.generic, pc.interp);
    VCAL_TRACE(tr, p, obs::EventKind::ClauseEnd, step_id);
  });

  for (const PathCounters& c : pcs) paths_ += c;
  // The recorded enumeration statistics replay verbatim on gathered
  // steps, keeping iterations/tests/sim_time bit-identical.
  if (rec) rec->stats = rank_stats;

  double slowest = 0.0;
  i64 iters = 0, tests = 0;
  for (const auto& s : rank_stats) {
    stats_.iterations += s.loop_iters;
    stats_.tests += s.tests;
    slowest = std::max(slowest, cost_.compute_cost(s.loop_iters, s.tests));
    iters += s.loop_iters;
    tests += s.tests;
  }
  stats_.sim_time += slowest;
  if (tr) {
    tr->set_virtual_time(stats_.sim_time);
    tr->record(ctl, obs::EventKind::StepCounters, step_id, iters, tests, 0,
               0);
    tr->record(ctl, obs::EventKind::ClauseEnd, step_id);
  }
  ++trace_step_;
}

// Executor half of the gather-schedule split: every virtual processor's
// operand reads become a flat gather over recorded dense-store offsets —
// no subscript evaluation, no bounds checks, no iteration-space
// enumeration. Guards and right-hand sides are evaluated live; the
// recording step's enumeration statistics replay verbatim, keeping
// SharedStats bit-identical to the enumerated path.
void SharedMachine::run_clause_gathered(const Clause& clause,
                                        const ClausePlan& plan,
                                        const spmd::GatherSchedule& sched,
                                        spmd::JitState* js,
                                        const spmd::JitFns* jfns) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = trace_step_;
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);
  const i64 procs = plan.procs();
  const int nrefs = sched.nrefs;
  const int nloops = sched.nloops;
  const spmd::ClauseKernel& kern = plan.kernel();

  bool lhs_read = false;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) lhs_read = true;
  std::optional<std::vector<double>> snap;
  if (lhs_read) snap = store_.snapshot(clause.lhs_array);

  std::vector<PathCounters> pcs(static_cast<std::size_t>(procs));
  for_ranks(procs, [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::GatherBegin, step_id);
    const spmd::GatherSchedule::RankGather& rg =
        sched.ranks[static_cast<std::size_t>(p)];
    std::vector<double> ref_values(static_cast<std::size_t>(nrefs));
    std::vector<const std::vector<double>*> rows(
        static_cast<std::size_t>(nrefs));
    for (int r = 0; r < nrefs; ++r)
      rows[static_cast<std::size_t>(r)] =
          snap && clause.refs[static_cast<std::size_t>(r)].array ==
                      clause.lhs_array
              ? &*snap
              : &store_.dense(clause.refs[static_cast<std::size_t>(r)].array);
    std::vector<double>& out_buf = store_.buffer(clause.lhs_array);
    std::vector<double> stack(static_cast<std::size_t>(kern.stack_need()));
    const spmd::CompiledGuard* guard = kern.guard();
    PathCounters& pc = pcs[static_cast<std::size_t>(p)];

    // Jitted replay: execute the flattened segment program instead of
    // the per-element gather — constant-stride runs go through the
    // vectorizable fused entry, irregular stretches through the gather
    // entry. A rank with any == false keeps the bytecode loop below.
    const spmd::JitRankProg* rp = nullptr;
    if (jfns && js) {
      const spmd::JitReplayProg* jp = js->replay_prog(sched);
      const spmd::JitRankProg& rr = jp->ranks[static_cast<std::size_t>(p)];
      if (rr.any) rp = &rr;
    }
    if (rp) {
      std::vector<const double*> bases(static_cast<std::size_t>(nrefs));
      for (int r = 0; r < nrefs; ++r)
        bases[static_cast<std::size_t>(r)] =
            rows[static_cast<std::size_t>(r)]->data();
      for (const spmd::JitSegment& sg : rp->segs) {
        if (sg.fused)
          jfns->fused(out_buf.data(), sg.la0, sg.la_stride, bases.data(),
                      sg.raddr0.data(), sg.rstride.data(),
                      rg.vals.data() + sg.e0 * nloops, sg.v0, sg.vstride,
                      sg.n);
        else
          jfns->replay(out_buf.data(), bases.data(),
                       rp->ids.data() + sg.e0 * nrefs,
                       rp->offs.data() + sg.e0 * nrefs,
                       rg.lhs_slot.data() + sg.e0,
                       rg.vals.data() + sg.e0 * nloops, sg.n);
      }
      pc.jit += rg.n;
    } else {
      for (i64 e = 0; e < rg.n; ++e) {
        const i64* vals = rg.vals.data() + e * nloops;
        const i64* offs = rg.offs.data() + e * nrefs;
        for (int r = 0; r < nrefs; ++r)
          ref_values[static_cast<std::size_t>(r)] =
              (*rows[static_cast<std::size_t>(r)])
                  [static_cast<std::size_t>(offs[r])];
        if (guard && !guard->holds(ref_values.data(), vals, stack.data()))
          continue;
        out_buf[static_cast<std::size_t>(
            rg.lhs_slot[static_cast<std::size_t>(e)])] =
            kern.rhs().eval(ref_values.data(), vals, stack.data());
      }
      pc.sched += rg.n;
    }
    VCAL_TRACE(tr, p, obs::EventKind::KernelPath, step_id, 0, 0, 0,
               pc.sched);
    VCAL_TRACE(tr, p, obs::EventKind::GatherEnd, step_id, rg.n);
  });

  for (const PathCounters& c : pcs) paths_ += c;
  ++comm_.sched_hits;
  VCAL_TRACE(tr, ctl, obs::EventKind::SchedHit, step_id);

  double slowest = 0.0;
  i64 iters = 0, tests = 0;
  for (const auto& s : sched.stats) {
    stats_.iterations += s.loop_iters;
    stats_.tests += s.tests;
    slowest = std::max(slowest, cost_.compute_cost(s.loop_iters, s.tests));
    iters += s.loop_iters;
    tests += s.tests;
  }
  stats_.sim_time += slowest;
  if (tr) {
    tr->set_virtual_time(stats_.sim_time);
    tr->record(ctl, obs::EventKind::StepCounters, step_id, iters, tests, 0,
               0);
    tr->record(ctl, obs::EventKind::ClauseEnd, step_id);
  }
  ++trace_step_;
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
