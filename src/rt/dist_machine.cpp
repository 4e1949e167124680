#include "rt/dist_machine.hpp"

#include <algorithm>
#include <numeric>

#include "decomp/redistribute.hpp"
#include "obs/metrics.hpp"
#include "rt/channel.hpp"
#include "spmd/comm_schedule.hpp"
#include "spmd/kernel.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::rt {

using prog::Clause;
using spmd::ClausePlan;

std::string DistStats::str() const {
  obs::MetricsRegistry reg;
  obs::collect(reg, *this);
  return reg.line();
}

DistMachine::DistMachine(spmd::Program program, gen::BuildOptions opts,
                         CostModel cost, EngineOptions engine,
                         std::shared_ptr<EngineContext> ctx,
                         const std::string& plan_scope)
    : program_(std::move(program)),
      opts_(opts),
      cost_(cost),
      engine_(engine),
      ctx_(ctx ? std::move(ctx) : std::make_shared<EngineContext>()),
      plans_(ctx_, plan_scope),
      lookup_(*plans_),
      store_(program_.procs) {
  program_.validate();
  if (engine_.threads > 1)
    pool_ = std::make_unique<support::ThreadPool>(engine_.threads);
  if (engine_.trace) {
    tracer_ = ctx_->make_tracer(program_.procs, engine_.trace_capacity);
    plans_->set_tracer(tracer_, tracer_->control_lane());
  }
  message_matrix_.assign(
      static_cast<std::size_t>(program_.procs),
      std::vector<i64>(static_cast<std::size_t>(program_.procs), 0));
  for (const auto& [name, desc] : program_.arrays) store_.declare(desc);
}

void DistMachine::load(const std::string& name,
                       const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(), "DistMachine::load unknown " + name);
  store_.load(it->second, dense);
}

void DistMachine::run() {
  for (const spmd::Step& step : program_.steps) {
    if (const auto* clause = std::get_if<Clause>(&step))
      run_clause(*clause);
    else
      run_redistribute(std::get<spmd::RedistStep>(step));
  }
}

void DistMachine::for_ranks(i64 n, const std::function<void(i64)>& body) {
  if (engine_.threads == 1) {
    for (i64 r = 0; r < n; ++r) body(r);
    return;
  }
  support::ThreadPool& pool =
      pool_ ? *pool_ : support::ThreadPool::shared();
  pool.parallel_for_ranks(n, body);
}

template <typename F>
void DistMachine::for_ranks_t(i64 n, F&& body) {
  if (engine_.threads == 1) {
    for (i64 r = 0; r < n; ++r) body(r);
    return;
  }
  support::ThreadPool& pool =
      pool_ ? *pool_ : support::ThreadPool::shared();
  pool.parallel_for_ranks(n, body);
}

void DistMachine::finish_step(const std::vector<RankCounters>& counters) {
  double slowest = 0.0;
  i64 halo_bulk = 0, halo_values = 0;
  i64 iters = 0, tests = 0, transfers = 0, bulk = 0;
  for (const RankCounters& c : counters) {
    stats_.messages += c.sends;
    stats_.bulk_messages += c.bulk_sends;
    stats_.local_reads += c.local_reads;
    stats_.remote_reads += c.remote_reads;
    stats_.iterations += c.iterations;
    stats_.tests += c.tests;
    halo_bulk += c.halo_bulk;
    halo_values += c.halo_values;
    stats_.halo_reads += c.halo_reads;
    slowest = std::max(slowest, c.time(cost_));
    iters += c.iterations;
    tests += c.tests;
    transfers += c.sends + c.receives;
    bulk += c.bulk_sends + c.bulk_receives;
  }
  // halo_bulk/halo_values are recorded on both endpoints; the aggregate
  // counts each exchange once.
  stats_.halo_messages += halo_bulk / 2;
  stats_.halo_values += halo_values / 2;
  stats_.sim_time += slowest;
  ++stats_.steps;
  last_counters_ = counters;
  if (tracer_) {
    // Publish the cost-model clock and the step's aggregate predictors
    // on the control lane: the calibration fit's raw material.
    tracer_->set_virtual_time(stats_.sim_time);
    tracer_->record(tracer_->control_lane(), obs::EventKind::StepCounters,
                    stats_.steps - 1, iters, tests, transfers, bulk);
  }
}


// Copy-in snapshot of the clause's target when the clause reads it:
// senders and local reads must observe pre-clause values. Null when the
// clause does not read its own target.
const std::vector<std::vector<double>>* DistMachine::snapshot_if_read(
    const Clause& clause) {
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) {
      store_.copy_into(clause.lhs_array, snap_);
      return &snap_;
    }
  return nullptr;
}

// Phase 0 of every clause (tagged or scheduled): every referenced array
// with a halo gets its boundary copies refreshed with pre-clause values
// — one bulk exchange per (owner, neighbour) pair, copied as one
// contiguous chunk of the owner's block. Near-boundary remote reads in
// phase 2 then stay local and read the halo row by slot. `snap` is the
// copy-in snapshot when the clause reads its own target (senders must
// observe pre-clause values), else null.
void DistMachine::refresh_halos(const Clause& clause, const ClausePlan& plan,
                                const std::vector<std::vector<double>>* snap,
                                std::vector<RankCounters>& counters,
                                i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 procs = plan.procs();
  const auto pp = static_cast<std::size_t>(procs * procs);
  for (int r = 0; r < static_cast<int>(clause.refs.size()); ++r) {
    const decomp::ArrayDesc& rd = plan.ref_desc(r);
    if (rd.halo() == 0) continue;
    HaloRows& h = halos_[rd.name()];
    if (h.step == step_id) continue;  // already refreshed via another ref
    h.step = step_id;
    h.rows.resize(static_cast<std::size_t>(procs));
    const bool from_snap = snap && rd.name() == clause.lhs_array;
    const decomp::Decomp1D& dim = rd.decomp().dim(0);  // 1-D block
    const i64 base = rd.lo(0);
    // Each rank fills its own halo row; the owner-side halo counters are
    // cross-rank, so they accumulate in per-rank scratch rows and merge
    // after the join (sums are order-independent).
    halo_owner_bulk_.assign(pp, 0);
    halo_owner_values_.assign(pp, 0);
    VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/0);
    for_ranks_t(procs, [&](i64 p) {
      VCAL_TRACE(tr, p, obs::EventKind::HaloBegin, step_id);
      RankCounters& rc = counters[static_cast<std::size_t>(p)];
      i64* ob = halo_owner_bulk_.data() + p * procs;
      i64* ov = halo_owner_values_.data() + p * procs;
      std::vector<double>& row = h.rows[static_cast<std::size_t>(p)];
      row.resize(static_cast<std::size_t>(rd.halo_capacity(p)));
      i64 slot = 0;
      for (int side : {-1, 1}) {
        auto [hlo, hhi] = rd.halo_range(p, side);
        // A wide halo crosses several owners' blocks: one chunk (one
        // bulk message) per owner.
        for (i64 g = hlo; g <= hhi;) {
          const i64 owner = dim.proc(g - base);
          const i64 local = dim.local(g - base);
          const i64 len = std::min(hhi - g + 1, dim.block_size() - local);
          const std::vector<double>& src =
              from_snap ? (*snap)[static_cast<std::size_t>(owner)]
                        : store_.local_row(rd.name(), owner);
          if (local + len > static_cast<i64>(src.size()))
            throw RuntimeFault("local read out of bounds on " + rd.name());
          std::copy_n(src.begin() + local, len, row.begin() + slot);
          slot += len;
          g += len;
          ++ob[owner];
          ++rc.halo_bulk;
          ov[owner] += len;
          rc.halo_values += len;
        }
      }
      VCAL_TRACE(tr, p, obs::EventKind::HaloEnd, step_id);
    });
    VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/0);
    for (std::size_t i = 0; i < pp; ++i) {
      RankCounters& oc = counters[i % static_cast<std::size_t>(procs)];
      oc.halo_bulk += halo_owner_bulk_[i];
      oc.halo_values += halo_owner_values_[i];
    }
  }
}

const std::vector<double>* DistMachine::halo_row(const std::string& array,
                                                 i64 p) const {
  auto it = halos_.find(array);
  return it == halos_.end() ? nullptr
                            : &it->second.rows[static_cast<std::size_t>(p)];
}

const spmd::JitFns* DistMachine::jit_poll(spmd::PlanCache::Entry& entry,
                                          const Clause& clause,
                                          const spmd::ClauseKernel& kern,
                                          spmd::JitState** js, i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const bool fresh = !entry.jit;
  if (fresh) entry.jit = std::make_shared<spmd::JitState>();
  if (!ctx_->jit().available()) {
    // No toolchain on this host: never arm (a compile job could only
    // fail). A single fallback per plan entry records that JIT was
    // requested but cannot happen here.
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
    VCAL_TRACE(tr, ctl, obs::EventKind::JitBuild, step_id, cfg.sync ? 1 : 0);
  if (r.swapped)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitSwap, step_id, r.cached ? 0 : 1);
  *js = entry.jit.get();
  return r.fns;
}

namespace {

// One provably-local stretch of an innermost run: n elements whose loop
// value starts at v0 and advances by vstride, whose LHS local slot
// starts at la and advances by lstride, and whose ref r operand sits at
// local offset raddr[r], advancing by rstride[r]. raddr is the walker's
// per-run scratch: the callee may advance it in place.
struct FusedRun {
  i64 v0 = 0;
  i64 vstride = 0;
  i64 n = 0;
  i64 la = 0;
  i64 lstride = 0;
  i64* raddr = nullptr;
  const i64* rstride = nullptr;
};

// Walks rank p's Modify_p space in order. For an affine kernel each
// innermost run splits into the maximal subrange the strided-run proof
// shows in bounds and resident on p for the LHS and every ref — handed
// to `fused` in one call — and the elements before and after it, handed
// to `element` one at a time. Unprovable runs and non-affine clauses go
// element at a time throughout. The tagged phase 2 and the inspector
// share this walk, so both see the same element order and split.
template <typename Element, typename Fused>
void walk_modify(const ClausePlan& plan, i64 p, gen::EnumStats* es,
                 Element&& element, Fused&& fused) {
  const spmd::ClauseKernel& kern = plan.kernel();
  const spmd::IterationSpace& space = plan.modify_space(p);
  const int inner = space.dims() - 1;
  auto each = [&](std::vector<i64>& vals, const gen::Piece& run, i64 k0,
                  i64 k1) {
    for (i64 k = k0; k < k1; ++k) {
      vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
      element(vals);
    }
  };
  if (!kern.affine()) {
    space.for_each_run(
        [&](std::vector<i64>& vals, const gen::Piece& run) {
          each(vals, run, 0, run.count);
        },
        es);
    return;
  }

  const auto n = plan.clause().refs.size();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const spmd::ArrayAddr lhs_addr = spmd::make_local_addr(lhs, p);
  std::vector<i64> g0l(static_cast<std::size_t>(lhs.ndims()));
  std::vector<i64> dgl(g0l.size());
  std::vector<spmd::ArrayAddr> raddrs;
  raddrs.reserve(n);
  std::vector<std::vector<i64>> g0s(n), dgs(n);
  for (std::size_t r = 0; r < n; ++r) {
    const decomp::ArrayDesc& rd = plan.ref_desc(static_cast<int>(r));
    raddrs.push_back(spmd::make_local_addr(rd, p));
    g0s[r].resize(static_cast<std::size_t>(rd.ndims()));
    dgs[r].resize(static_cast<std::size_t>(rd.ndims()));
  }
  std::vector<spmd::StridedRun> rruns(n);
  std::vector<i64> raddr(n), rstride(n);
  space.for_each_run(
      [&](std::vector<i64>& vals, const gen::Piece& run) {
        spmd::StridedRun lrun;
        spmd::fill_progression(kern.lhs_subs().affine, vals, inner, run,
                               g0l.data(), dgl.data());
        bool fuse = spmd::strided_run(lhs_addr, g0l.data(), dgl.data(),
                                      run.count, &lrun);
        i64 k0 = lrun.k_lo, k1 = lrun.k_hi;
        for (std::size_t r = 0; fuse && r < n; ++r) {
          spmd::fill_progression(kern.ref_subs(static_cast<int>(r)).affine,
                                 vals, inner, run, g0s[r].data(),
                                 dgs[r].data());
          fuse = spmd::strided_run(raddrs[r], g0s[r].data(), dgs[r].data(),
                                   run.count, &rruns[r]);
          if (fuse) {
            k0 = std::max(k0, rruns[r].k_lo);
            k1 = std::min(k1, rruns[r].k_hi);
          }
        }
        if (!fuse || k0 > k1) {
          each(vals, run, 0, run.count);
          return;
        }
        each(vals, run, 0, k0);
        FusedRun f;
        f.v0 = run.start + k0 * run.stride;
        f.vstride = run.stride;
        f.n = k1 - k0 + 1;
        f.la = lrun.addr0 + (k0 - lrun.k_lo) * lrun.stride;
        f.lstride = lrun.stride;
        for (std::size_t r = 0; r < n; ++r) {
          raddr[r] = rruns[r].addr0 + (k0 - rruns[r].k_lo) * rruns[r].stride;
          rstride[r] = rruns[r].stride;
        }
        f.raddr = raddr.data();
        f.rstride = rstride.data();
        fused(vals, f);
        each(vals, run, k1 + 1, run.count);
      },
      es);
}

}  // namespace

void DistMachine::run_clause(const Clause& clause) {
  if (clause.ord == prog::Ordering::Seq)
    throw CodegenError(
        "sequential ('•') clauses are not supported on the distributed "
        "target; the paper leaves DOACROSS orderings out of scope");

  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;  // index of the step now executing

  // Faults armed for this step (stats_.steps counts completed steps, so
  // it is the index of the step now executing). Collected before the
  // schedule dispatch: any armed fault forces the tagged path, so the
  // perturbation machinery always sees real channels.
  std::vector<const FaultPlan*> active_faults;
  for (const FaultPlan& f : faults_)
    if (f.step == stats_.steps && f.kind != FaultPlan::Kind::None)
      active_faults.push_back(&f);
  const bool fault_armed = !active_faults.empty();

  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);

  // Plans are pure compile-time data, cached per layout of the arrays
  // the clause touches; the entry also carries the clause's schedule
  // and JIT state for that layout.
  spmd::PlanCache::Entry& entry =
      lookup_.get(clause, program_.arrays, opts_);
  const ClausePlan& plan = entry.plan;

  // Kernel path: bytecode RHS/guard and subscript records (see
  // spmd/kernel.hpp); kaff additionally enables the strided-run
  // analysis in both phases.
  const spmd::ClauseKernel& kern = plan.kernel();
  const bool kaff = kern.affine();

  // JIT dispatch: poll the entry's state once per execution (arming
  // counter, compile status, pointer swap). Requires an affine kernel;
  // armed faults keep the fully observable bytecode.
  spmd::JitState* js = nullptr;
  const spmd::JitFns* jfns = nullptr;
  if (engine_.jit && kaff && !fault_armed)
    jfns = jit_poll(entry, clause, kern, &js, step_id);

  // Communication-schedule dispatch (inspector–executor): a clean step
  // runs the executor, inspecting the plan for a schedule first when
  // the entry holds none. Armed faults, and clauses the inspector
  // refuses because an element would fault, take the tagged path.
  if (engine_.comm_schedules) {
    if (fault_armed) {
      ++comm_.sched_fallbacks;
      VCAL_TRACE(tr, ctl, obs::EventKind::SchedFallback, step_id, 1);
    } else {
      const bool stored = entry.sched != nullptr;
      if (!stored) {
        if ((entry.sched = inspect(clause, plan))) {
          ++comm_.sched_builds;
          VCAL_TRACE(tr, ctl, obs::EventKind::SchedBuild, step_id,
                     plans_->schedules());
        }
      }
      if (entry.sched) {
        run_clause_scheduled(
            clause, plan,
            static_cast<const spmd::CommSchedule&>(*entry.sched), js, jfns,
            /*replay=*/stored);
        return;
      }
    }
  }

  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;

  // Copy-in snapshot when the clause reads its own target: senders and
  // local reads must observe pre-clause values.
  const std::vector<std::vector<double>>* snap = snapshot_if_read(clause);

  // Pre-clause source row for ref r on `rank`: the copy-in snapshot when
  // the clause reads its own target, the live store row otherwise.
  // Resolved once per (ref, rank) so the phase loops read through a plain
  // pointer instead of a string-keyed lookup per element.
  auto ref_row = [&](int r, i64 rank) -> const std::vector<double>& {
    const std::string& name =
        clause.refs[static_cast<std::size_t>(r)].array;
    if (snap && name == clause.lhs_array)
      return (*snap)[static_cast<std::size_t>(rank)];
    return store_.local_row(name, rank);
  };
  auto read_row = [&](const std::vector<double>& row, i64 local,
                      int r) -> double {
    if (!in_range(local, 0, static_cast<i64>(row.size()) - 1))
      throw RuntimeFault(
          "local read out of bounds on " +
          clause.refs[static_cast<std::size_t>(r)].array);
    return row[static_cast<std::size_t>(local)];
  };

  // In-flight messages: one bulk channel per (src, dst) rank pair.
  std::vector<Channel> channels(
      static_cast<std::size_t>(procs * procs));
  auto channel = [&](i64 src, i64 dst) -> Channel& {
    return channels[static_cast<std::size_t>(src * procs + dst)];
  };
  std::vector<RankCounters> counters(static_cast<std::size_t>(procs));
  std::vector<PathCounters> pcs(static_cast<std::size_t>(procs));

  auto valid_channel = [&](const FaultPlan& f) {
    return in_range(f.src, 0, procs - 1) && in_range(f.dst, 0, procs - 1);
  };

  // ---- Phase 0: halo refresh for overlapped decompositions -----------
  refresh_halos(clause, plan, snap, counters, step_id);
  auto halo_covers = [&](const decomp::ArrayDesc& rd, i64 rank,
                         const std::vector<i64>& idx) {
    return rd.halo() > 0 && rd.in_halo(rank, idx);
  };

  // ---- Phase 1: non-blocking sends (Reside_p \ Modify_p) -------------
  // Rank p writes only its own channel row, counter slot, and
  // message-matrix row, so the loop parallelizes without locks.
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/1);
  for_ranks(procs, [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::SendBegin, step_id);
    RankCounters& rc = counters[static_cast<std::size_t>(p)];
    PathCounters& pc = pcs[static_cast<std::size_t>(p)];
    auto& matrix_row = message_matrix_[static_cast<std::size_t>(p)];
    std::vector<i64> ridx, out_idx;  // per-rank scratch
    spmd::ArrayAddr lhs_addr;
    std::vector<i64> g0r, dgr, g0l, dgl;
    if (kaff) {
      lhs_addr = spmd::make_local_addr(lhs, p);
      g0l.resize(static_cast<std::size_t>(lhs.ndims()));
      dgl.resize(static_cast<std::size_t>(lhs.ndims()));
    }
    for (int r = 0; r < nrefs; ++r) {
      if (!plan.ref_needs_comm(r)) continue;  // replicated: always local
      gen::EnumStats es;
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      const std::vector<double>& row = ref_row(r, p);
      const spmd::IterationSpace& space = plan.reside_space(p, r);
      const spmd::SubRecords& rsubs = kern.ref_subs(r);
      const spmd::SubRecords& lsubs = kern.lhs_subs();
      spmd::ArrayAddr ref_addr;
      if (kaff) {
        ref_addr = spmd::make_local_addr(rd, p);
        g0r.resize(rsubs.affine.size());
        dgr.resize(rsubs.affine.size());
      }
      // Per-element send decision: route each resident operand to the
      // rank that computes the element reading it.
      auto emit = [&](const std::vector<i64>& vals) {
        spmd::ClauseKernel::subs_into(rsubs, vals.data(), ridx);
        if (!rd.in_bounds(ridx))
          throw RuntimeFault("read out of bounds on " +
                             clause.refs[static_cast<std::size_t>(r)].array);
        double value = read_row(row, rd.local_linear(ridx), r);
        i64 tag = kern.tag(r, vals.data());
        if (lhs.is_replicated()) {
          // Every rank computes every index: broadcast to the others.
          for (i64 dst = 0; dst < procs; ++dst) {
            if (dst == p) continue;
            if (halo_covers(rd, dst, ridx))
              continue;  // receiver reads its halo copy
            channel(p, dst).push(tag, value);
            ++rc.sends;
            ++matrix_row[static_cast<std::size_t>(dst)];
          }
        } else {
          spmd::ClauseKernel::subs_into(lsubs, vals.data(), out_idx);
          if (!lhs.in_bounds(out_idx)) return;  // nobody computes this
          i64 dst = lhs.owner(out_idx);
          if (dst == p) return;  // Modify ∩ Reside: local update later
          if (halo_covers(rd, dst, ridx))
            return;  // receiver reads its halo copy
          channel(p, dst).push(tag, value);
          ++rc.sends;
          ++matrix_row[static_cast<std::size_t>(dst)];
        }
      };
      space.for_each_run(
          [&](std::vector<i64>& vals, const gen::Piece& run) {
            // Elements whose LHS target this rank itself owns send
            // nothing (Modify ∩ Reside); when a strided-run proof covers
            // both sides — ref in bounds, stored here, and LHS in
            // bounds, owned here — the whole subrange is skipped without
            // touching it. Run edges, unprovable runs and non-affine
            // clauses go element at a time.
            i64 k0 = 0, k1 = -1;
            if (kaff && !lhs.is_replicated()) {
              spmd::StridedRun rr, lr;
              spmd::fill_progression(rsubs.affine, vals, inner, run,
                                     g0r.data(), dgr.data());
              bool ok = spmd::strided_run(ref_addr, g0r.data(), dgr.data(),
                                          run.count, &rr);
              if (ok) {
                spmd::fill_progression(lsubs.affine, vals, inner, run,
                                       g0l.data(), dgl.data());
                ok = spmd::strided_run(lhs_addr, g0l.data(), dgl.data(),
                                       run.count, &lr);
              }
              if (ok) {
                k0 = std::max(rr.k_lo, lr.k_lo);
                k1 = std::min(rr.k_hi, lr.k_hi);
              }
              if (k1 < k0) {
                k0 = 0;
                k1 = -1;
              }
            }
            for (i64 k = 0; k < k0; ++k) {
              vals[static_cast<std::size_t>(inner)] =
                  run.start + k * run.stride;
              emit(vals);
            }
            for (i64 k = k1 + 1; k < run.count; ++k) {
              vals[static_cast<std::size_t>(inner)] =
                  run.start + k * run.stride;
              emit(vals);
            }
            const i64 skipped = k1 >= k0 ? k1 - k0 + 1 : 0;
            pc.fused += skipped;
            pc.generic += run.count - skipped;
          },
          &es);
      rc.iterations += es.loop_iters;
      rc.tests += es.tests;
    }
    // Pack this rank's outgoing traffic: one sorted bulk message per
    // destination it actually sends to.
    for (i64 dst = 0; dst < procs; ++dst) {
      Channel& ch = channel(p, dst);
      if (ch.msgs.empty()) continue;
      ch.pack();
      ++rc.bulk_sends;
      VCAL_TRACE(tr, p, obs::EventKind::MsgSend, step_id, dst,
                 static_cast<i64>(ch.msgs.size()));
    }
    VCAL_TRACE(tr, p, obs::EventKind::SendEnd, step_id);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/1);
  // The virtual network misbehaves here, between send completion and the
  // first receive: armed message faults perturb the packed channels.
  for (const FaultPlan* f : active_faults) {
    bool applied = false;
    switch (f->kind) {
      case FaultPlan::Kind::DropMessage:
        applied = valid_channel(*f) && channel(f->src, f->dst).drop(f->index);
        break;
      case FaultPlan::Kind::DuplicateMessage:
        applied =
            valid_channel(*f) && channel(f->src, f->dst).duplicate(f->index);
        break;
      case FaultPlan::Kind::ReorderChannel:
        applied = valid_channel(*f) && channel(f->src, f->dst).reorder();
        break;
      default:
        break;
    }
    if (applied) ++faults_applied_;
  }

  // Receiver-side bulk accounting (cross-rank: done serially).
  for (i64 src = 0; src < procs; ++src)
    for (i64 dst = 0; dst < procs; ++dst)
      if (!channel(src, dst).msgs.empty()) {
        ++counters[static_cast<std::size_t>(dst)].bulk_receives;
        // Serial section: writing the dst lane from here is race-free.
        VCAL_TRACE(tr, dst, obs::EventKind::MsgRecv, step_id, src,
                   static_cast<i64>(channel(src, dst).msgs.size()));
      }

  // ---- Phase 2: receive and update (Modify_p) -------------------------
  // Rank p consumes only channels destined to it and writes only its own
  // local LHS buffer; all other reads are pre-clause values.
  // Provably-local subranges of each innermost run of an affine clause
  // fuse into one strided loop over the local rows; every other element
  // goes through the per-element body.
  auto phase2 = [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::ClauseBegin, step_id);
    RankCounters& rc = counters[static_cast<std::size_t>(p)];
    PathCounters& pc = pcs[static_cast<std::size_t>(p)];
    std::vector<double> ref_values(clause.refs.size());
    std::vector<i64> ridx, out_idx;  // per-rank scratch
    std::vector<const std::vector<double>*> rows(
        static_cast<std::size_t>(nrefs));
    std::vector<const std::vector<double>*> hrows(
        static_cast<std::size_t>(nrefs));
    std::vector<const double*> row_ptrs(static_cast<std::size_t>(nrefs));
    for (int r = 0; r < nrefs; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      rows[ur] = &ref_row(r, p);
      row_ptrs[ur] = rows[ur]->data();
      hrows[ur] = halo_row(clause.refs[ur].array, p);
    }
    std::vector<double>& out_row =
        store_.local_row_mut(clause.lhs_array, p);
    std::vector<double> stack(static_cast<std::size_t>(kern.stack_need()));
    const spmd::CompiledGuard* guard = kern.guard();
    const spmd::CompiledExpr& rhs = kern.rhs();

    // Element-at-a-time body: owner test, local/halo/remote operand
    // fetch, guard, RHS, and the local write.
    auto element = [&](const std::vector<i64>& vals) {
      ++pc.generic;
      spmd::ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), out_idx);
      if (!lhs.in_bounds(out_idx))
        throw RuntimeFault("write out of bounds on " + clause.lhs_array);
      for (int r = 0; r < nrefs; ++r) {
        const decomp::ArrayDesc& rd = plan.ref_desc(r);
        spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), ridx);
        if (!rd.in_bounds(ridx))
          throw RuntimeFault(
              "read out of bounds on " +
              clause.refs[static_cast<std::size_t>(r)].array);
        const std::vector<double>& row =
            *rows[static_cast<std::size_t>(r)];
        const i64 src = rd.is_replicated() ? p : rd.owner(ridx);
        if (src == p) {
          ref_values[static_cast<std::size_t>(r)] =
              read_row(row, rd.local_linear(ridx), r);
          ++rc.local_reads;
        } else if (halo_covers(rd, p, ridx)) {
          // Overlapped decomposition: the value is already cached in
          // this rank's halo row.
          ref_values[static_cast<std::size_t>(r)] =
              (*hrows[static_cast<std::size_t>(r)])[static_cast<std::size_t>(
                  rd.halo_slot(p, ridx[0]))];
          ++rc.halo_reads;
        } else {
          // Blocking receive from the in-flight bulk message.
          i64 tag = kern.tag(r, vals.data());
          const double* value = channel(src, p).consume(tag);
          if (value == nullptr) {
            std::string elem =
                clause.refs[static_cast<std::size_t>(r)].array + "[";
            for (std::size_t d = 0; d < ridx.size(); ++d)
              elem += cat(d ? ", " : "", ridx[d]);
            elem += "]";
            std::string diag = cat(
                "deadlock: rank ", p, " blocked on pending receive of ",
                elem, " (tag ", tag, ") from rank ", src,
                ", which never sent it — inconsistent schedules or a "
                "lost message");
            if (tr) {
              diag += cat("; last traced event on rank ", p, ": ",
                          tr->last_event_str(p));
              tr->record(p, obs::EventKind::RecvWait, step_id, src, tag);
            }
            throw DeadlockError(diag);
          }
          ref_values[static_cast<std::size_t>(r)] = *value;
          ++rc.receives;
          ++rc.remote_reads;
        }
      }
      if (guard &&
          !guard->holds(ref_values.data(), vals.data(), stack.data()))
        return;
      double value = rhs.eval(ref_values.data(), vals.data(), stack.data());
      i64 slot = lhs.local_linear(out_idx);
      if (!in_range(slot, 0, static_cast<i64>(out_row.size()) - 1))
        throw RuntimeFault("local write out of bounds on " +
                           clause.lhs_array);
      out_row[static_cast<std::size_t>(slot)] = value;
    };

    // Fused strided loop: every element of the run is proven in bounds
    // and resident on this rank for the LHS and every ref, so the body
    // carries no checks, no calls through the plan, and no allocations —
    // just strided row reads, the bytecode evaluator on a preallocated
    // stack, and a strided row write.
    auto fused = [&](std::vector<i64>& vals, const FusedRun& f) {
      if (jfns) {
        // The jitted loop needs only the strides: addressing arrives as
        // arguments, the guard/RHS are compiled in.
        jfns->fused(out_row.data(), f.la, f.lstride, row_ptrs.data(),
                    f.raddr, f.rstride, vals.data(), f.v0, f.vstride, f.n);
        pc.jit += f.n;
      } else {
        i64 la = f.la, v = f.v0;
        for (i64 k = 0; k < f.n; ++k) {
          vals[static_cast<std::size_t>(inner)] = v;
          for (int r = 0; r < nrefs; ++r) {
            auto ur = static_cast<std::size_t>(r);
            ref_values[ur] = row_ptrs[ur][f.raddr[ur]];
            f.raddr[ur] += f.rstride[ur];
          }
          if (!guard ||
              guard->holds(ref_values.data(), vals.data(), stack.data()))
            out_row[static_cast<std::size_t>(la)] =
                rhs.eval(ref_values.data(), vals.data(), stack.data());
          la += f.lstride;
          v += f.vstride;
        }
        pc.fused += f.n;
      }
      rc.local_reads += f.n * nrefs;
    };

    gen::EnumStats es;
    walk_modify(plan, p, &es, element, fused);
    rc.iterations += es.loop_iters;
    rc.tests += es.tests;
    VCAL_TRACE(tr, p, obs::EventKind::ClauseEnd, step_id);
  };

  // A stalled rank sits out the scheduled receive/update rounds while
  // every other rank completes; its sends are already in flight, so the
  // step's outcome must be unchanged once the stall releases.
  const FaultPlan* stall = nullptr;
  for (const FaultPlan* f : active_faults)
    if (f->kind == FaultPlan::Kind::StallRank &&
        in_range(f->rank, 0, procs - 1))
      stall = f;
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/2);
  if (stall) {
    VCAL_TRACE(tr, stall->rank, obs::EventKind::Stall, step_id,
               std::max<i64>(stall->rounds, 0));
    for_ranks(procs, [&](i64 p) {
      if (p != stall->rank) phase2(p);
    });
    stall_rounds_ += std::max<i64>(stall->rounds, 0);
    ++faults_applied_;
    phase2(stall->rank);  // the stall releases
  } else {
    for_ranks(procs, phase2);
  }
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/2);

  // Every send must have been consumed — the message-pairing invariant.
  for (i64 p = 0; p < procs; ++p) {
    i64 leftover = 0;
    for (i64 src = 0; src < procs; ++src)
      leftover += channel(src, p).undelivered();
    if (leftover > 0)
      throw RuntimeFault(cat("rank ", p, " finished the clause with ",
                             leftover, " undelivered messages"));
  }
  for (const PathCounters& c : pcs) paths_ += c;
  if (tr)
    for (i64 p = 0; p < procs; ++p) {
      const PathCounters& c = pcs[static_cast<std::size_t>(p)];
      tr->record(p, obs::EventKind::KernelPath, step_id, c.fused, c.generic,
                 c.interp, c.sched);
    }
  finish_step(counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
}

// Inspector half of the inspector–executor split: derives the clause's
// communication schedule from its plan and kernel alone, receiver-side —
// the paper's point that Reside_p \ Modify_p follows from the data
// decomposition. Each destination rank p walks Modify_p (walk_modify, so
// element order and the fused split match the tagged phase 2) and
// resolves every operand as local, halo, or remote; a remote operand is
// appended to the (owner, p) pack list in p's walk order, and its
// receive slot is its position there. The counters come out as the
// tagged step counts them: reads and receives from the walk, the
// senders' phase-1 enumeration charges from their Reside_p spaces, and
// sends, bulk messages and message-matrix increments from the pack-list
// sizes (halo counters are left to the live refresh). Returns null when
// any element would fault — LHS or ref out of bounds, a local offset
// outside its row, a subscript that faults as it evaluates — so the
// tagged path raises the error.
std::unique_ptr<spmd::CommSchedule> DistMachine::inspect(
    const Clause& clause, const ClausePlan& plan) {
  const spmd::ClauseKernel& kern = plan.kernel();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const auto nloops = static_cast<i64>(clause.loops.size());
  auto sched = std::make_unique<spmd::CommSchedule>();
  sched->init(procs, static_cast<int>(nloops), nrefs);

  // Local row length per (ref, rank): the bound the tagged path checks
  // every operand read against (a copy-in snapshot has the same shape).
  std::vector<i64> row_len(static_cast<std::size_t>(nrefs * procs));
  for (int r = 0; r < nrefs; ++r)
    for (i64 q = 0; q < procs; ++q)
      row_len[static_cast<std::size_t>(r * procs + q)] = static_cast<i64>(
          store_.local_row(clause.refs[static_cast<std::size_t>(r)].array, q)
              .size());

  // pack[dst * procs + src]: the operands dst reads from src, in dst's
  // walk order.
  std::vector<std::vector<spmd::PackOp>> pack(
      static_cast<std::size_t>(procs * procs));
  std::vector<char> refused(static_cast<std::size_t>(procs), 0);
  for_ranks_t(procs, [&](i64 p) {
    spmd::CommSchedule& cs = *sched;
    RankCounters& rc = cs.counters[static_cast<std::size_t>(p)];
    spmd::RecvPlan& rv = cs.recv[static_cast<std::size_t>(p)];
    std::vector<spmd::PackOp>* from = pack.data() + p * procs;
    char& bad = refused[static_cast<std::size_t>(p)];
    const auto out_len = static_cast<i64>(
        store_.local_row(clause.lhs_array, p).size());
    const i64 n = plan.modify_space(p).count();
    rv.lhs_slot.reserve(static_cast<std::size_t>(n));
    rv.vals.reserve(static_cast<std::size_t>(n * nloops));
    rv.ops.reserve(static_cast<std::size_t>(n * nrefs));

    // Phase 1 of the tagged step: rank p enumerates each of its Reside_p
    // spaces once.
    for (int r = 0; r < nrefs; ++r) {
      if (!plan.ref_needs_comm(r)) continue;
      const gen::EnumStats c = plan.reside_space(p, r).charge();
      rc.iterations += c.loop_iters;
      rc.tests += c.tests;
    }

    std::vector<i64> ridx, out_idx;  // per-rank scratch
    auto element = [&](const std::vector<i64>& vals) {
      if (bad) return;
      spmd::ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), out_idx);
      if (!lhs.in_bounds(out_idx)) {
        bad = 1;
        return;
      }
      for (int r = 0; r < nrefs; ++r) {
        const decomp::ArrayDesc& rd = plan.ref_desc(r);
        spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), ridx);
        if (!rd.in_bounds(ridx)) {
          bad = 1;
          return;
        }
        const i64 src = rd.is_replicated() ? p : rd.owner(ridx);
        if (src != p && rd.halo() > 0 && rd.in_halo(p, ridx)) {
          cs.note_halo(p, r, rd.halo_slot(p, ridx[0]));
          ++rc.halo_reads;
          continue;
        }
        const i64 local = rd.local_linear(ridx);
        if (!in_range(local, 0,
                      row_len[static_cast<std::size_t>(r * procs + src)] -
                          1)) {
          bad = 1;
          return;
        }
        if (src == p) {
          cs.note_local(p, r, local);
          ++rc.local_reads;
        } else {
          std::vector<spmd::PackOp>& list = from[src];
          cs.note_remote(p, r, src, static_cast<i64>(list.size()));
          list.push_back(spmd::PackOp{static_cast<std::int32_t>(r), local});
          ++rc.receives;
          ++rc.remote_reads;
        }
      }
      // Guards are evaluated on replay, so a write slot outside the row
      // is kept as -1: it faults only if the guard holds.
      i64 slot = lhs.local_linear(out_idx);
      if (!in_range(slot, 0, out_len - 1)) slot = -1;
      cs.note_element(p, slot, vals.data());
    };
    // A fused run is proven local and in bounds for the LHS and every
    // ref: note it in bulk.
    auto fused = [&](std::vector<i64>& vals, const FusedRun& f) {
      if (bad) return;
      for (i64 k = 0; k < f.n; ++k) {
        vals[static_cast<std::size_t>(nloops - 1)] = f.v0 + k * f.vstride;
        cs.note_element(p, f.la + k * f.lstride, vals.data());
        for (int r = 0; r < nrefs; ++r)
          cs.note_local(p, r, f.raddr[r] + k * f.rstride[r]);
      }
      rc.local_reads += f.n * nrefs;
    };
    gen::EnumStats es;
    try {
      walk_modify(plan, p, &es, element, fused);
    } catch (const RuntimeFault&) {
      // A subscript that faults as it evaluates (a zero divisor): the
      // tagged path raises it in its own order.
      bad = 1;
    }
    rc.iterations += es.loop_iters;
    rc.tests += es.tests;
  });
  for (char b : refused)
    if (b) return nullptr;

  // Freeze each source rank's pack program: its lists to every
  // destination, back to back, and charge the traffic to both ends.
  for (i64 src = 0; src < procs; ++src) {
    spmd::SendPlan& sp = sched->send[static_cast<std::size_t>(src)];
    sp.dst_begin.assign(static_cast<std::size_t>(procs) + 1, 0);
    for (i64 dst = 0; dst < procs; ++dst) {
      sp.dst_begin[static_cast<std::size_t>(dst)] =
          static_cast<i64>(sp.ops.size());
      const std::vector<spmd::PackOp>& list =
          pack[static_cast<std::size_t>(dst * procs + src)];
      if (list.empty()) continue;
      const auto m = static_cast<i64>(list.size());
      sp.ops.insert(sp.ops.end(), list.begin(), list.end());
      RankCounters& sc = sched->counters[static_cast<std::size_t>(src)];
      sc.sends += m;
      ++sc.bulk_sends;
      ++sched->counters[static_cast<std::size_t>(dst)].bulk_receives;
      sched->matrix_delta[static_cast<std::size_t>(src * procs + dst)] = m;
    }
    sp.dst_begin[static_cast<std::size_t>(procs)] =
        static_cast<i64>(sp.ops.size());
    sched->packed_ops += static_cast<i64>(sp.ops.size());
  }
  return sched;
}

// Executor half of the inspector–executor split. The schedule holds the
// step's communication pattern: each source rank packs values
// positionally into the reused (src, dst) buffers in the order the
// inspector froze, and each destination satisfies every operand by
// offset — no tags, no sorting, no hashing, so per-step receive cost is
// O(m) instead of O(m log m). Guards and right-hand sides are evaluated
// live (only the pattern is compiled, never values); counters and the
// message matrix come from the schedule, the halo counters from the
// live refresh, keeping every observable statistic bit-identical to the
// tagged path.
void DistMachine::run_clause_scheduled(const Clause& clause,
                                       const ClausePlan& plan,
                                       const spmd::CommSchedule& sched,
                                       spmd::JitState* js,
                                       const spmd::JitFns* jfns,
                                       bool replay) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;
  const i64 procs = sched.procs;
  const int nrefs = sched.nrefs;
  const int nloops = sched.nloops;

  const spmd::ClauseKernel& kern = plan.kernel();

  // Copy-in snapshot when the clause reads its own target: packing and
  // local gathers must observe pre-clause values.
  const std::vector<std::vector<double>>* snap = snapshot_if_read(clause);

  // Persistent scratch: sized on the first scheduled step, reused by
  // every later one (the steady state allocates nothing).
  if (static_cast<i64>(sched_counters_.size()) != procs) {
    sched_counters_.assign(static_cast<std::size_t>(procs), RankCounters{});
    sched_pcs_.assign(static_cast<std::size_t>(procs), PathCounters{});
    replay_scratch_.resize(static_cast<std::size_t>(procs));
  }
  for (RankCounters& c : sched_counters_) c = RankCounters{};
  for (PathCounters& c : sched_pcs_) c = PathCounters{};

  // Phase 0: live halo refresh (halo *values* change step to step); its
  // counters join the schedule's below.
  refresh_halos(clause, plan, snap, sched_counters_, step_id);

  // Resolve each ref's pre-clause source row (snapshot-aware) and halo
  // row on `p` into the rank's persistent scratch.
  auto resolve_rows = [&](i64 p, ReplayScratch& rs) {
    rs.rows.resize(static_cast<std::size_t>(nrefs));
    rs.halo_rows.resize(static_cast<std::size_t>(nrefs));
    for (int r = 0; r < nrefs; ++r) {
      const std::string& name =
          clause.refs[static_cast<std::size_t>(r)].array;
      rs.rows[static_cast<std::size_t>(r)] =
          (snap && name == clause.lhs_array)
              ? &(*snap)[static_cast<std::size_t>(p)]
              : &store_.local_row(name, p);
      rs.halo_rows[static_cast<std::size_t>(r)] = halo_row(name, p);
    }
  };

  // Double-buffered reused channel storage: one contiguous value vector
  // per (src, dst) pair, parity-flipped per scheduled step; clear()
  // keeps capacity.
  std::vector<std::vector<double>>& bufs = comm_bufs_[comm_parity_];
  comm_parity_ ^= 1;
  if (static_cast<i64>(bufs.size()) != procs * procs)
    bufs.resize(static_cast<std::size_t>(procs * procs));

  // ---- Executor phase 1: positional pack -----------------------------
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/1);
  for_ranks_t(procs, [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::PackBegin, step_id);
    ReplayScratch& rs = replay_scratch_[static_cast<std::size_t>(p)];
    resolve_rows(p, rs);
    const spmd::SendPlan& sp = sched.send[static_cast<std::size_t>(p)];
    i64 packed = 0;
    for (i64 dst = 0; dst < procs; ++dst) {
      std::vector<double>& buf =
          bufs[static_cast<std::size_t>(p * procs + dst)];
      buf.clear();
      const i64 b0 = sp.dst_begin[static_cast<std::size_t>(dst)];
      const i64 b1 = sp.dst_begin[static_cast<std::size_t>(dst) + 1];
      for (i64 i = b0; i < b1; ++i) {
        const spmd::PackOp& op = sp.ops[static_cast<std::size_t>(i)];
        buf.push_back((*rs.rows[static_cast<std::size_t>(op.ref)])
                          [static_cast<std::size_t>(op.offset)]);
      }
      if (b1 > b0)
        VCAL_TRACE(tr, p, obs::EventKind::MsgSend, step_id, dst, b1 - b0);
      packed += b1 - b0;
    }
    VCAL_TRACE(tr, p, obs::EventKind::PackEnd, step_id, packed);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/1);
  if (tr)
    for (i64 src = 0; src < procs; ++src)
      for (i64 dst = 0; dst < procs; ++dst) {
        const auto& buf = bufs[static_cast<std::size_t>(src * procs + dst)];
        if (!buf.empty())
          tr->record(dst, obs::EventKind::MsgRecv, step_id, src,
                     static_cast<i64>(buf.size()));
      }

  // ---- Executor phase 2: gather by recorded offset, live guard/RHS ---
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/2);
  for_ranks_t(procs, [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::GatherBegin, step_id);
    ReplayScratch& rs = replay_scratch_[static_cast<std::size_t>(p)];
    const spmd::RecvPlan& rv = sched.recv[static_cast<std::size_t>(p)];
    std::vector<double>& out_row =
        store_.local_row_mut(clause.lhs_array, p);
    rs.refs.resize(static_cast<std::size_t>(nrefs));
    const spmd::CompiledGuard* guard = kern.guard();
    rs.stack.resize(static_cast<std::size_t>(kern.stack_need()));

    // Jitted replay: execute the flattened segment program instead of
    // the per-element dispatch — constant-stride runs go through the
    // vectorizable fused entry, irregular stretches (halo operands
    // included) through the gather entry. A rank with any == false
    // (a guarded-OOB slot) keeps the bytecode loop below.
    const spmd::JitRankProg* rp = nullptr;
    if (jfns && js) {
      const spmd::JitReplayProg* jp = js->replay_prog(sched);
      const spmd::JitRankProg& rr = jp->ranks[static_cast<std::size_t>(p)];
      if (rr.any) rp = &rr;
    }
    if (rp) {
      // Operand bases: ref rows first, then the packed buffer arriving
      // from each source rank, then each ref's halo row (matching
      // JitRankProg's id encoding).
      rs.bases.resize(static_cast<std::size_t>(nrefs + procs + nrefs));
      for (int r = 0; r < nrefs; ++r) {
        const auto ur = static_cast<std::size_t>(r);
        rs.bases[ur] = rs.rows[ur]->data();
        rs.bases[static_cast<std::size_t>(nrefs + procs) + ur] =
            rs.halo_rows[ur] ? rs.halo_rows[ur]->data() : nullptr;
      }
      for (i64 s = 0; s < procs; ++s)
        rs.bases[static_cast<std::size_t>(nrefs + s)] =
            bufs[static_cast<std::size_t>(s * procs + p)].data();
      for (const spmd::JitSegment& sg : rp->segs) {
        if (sg.fused)
          jfns->fused(out_row.data(), sg.la0, sg.la_stride, rs.bases.data(),
                      sg.raddr0.data(), sg.rstride.data(),
                      rv.vals.data() + sg.e0 * nloops, sg.v0, sg.vstride,
                      sg.n);
        else
          jfns->replay(out_row.data(), rs.bases.data(),
                       rp->ids.data() + sg.e0 * nrefs,
                       rp->offs.data() + sg.e0 * nrefs,
                       rv.lhs_slot.data() + sg.e0,
                       rv.vals.data() + sg.e0 * nloops, sg.n);
      }
      sched_pcs_[static_cast<std::size_t>(p)].jit += rv.n;
    } else {
      for (i64 e = 0; e < rv.n; ++e) {
        const i64* vals = rv.vals.data() + e * nloops;
        const spmd::RefOp* ops = rv.ops.data() + e * nrefs;
        for (int r = 0; r < nrefs; ++r) {
          const spmd::RefOp& op = ops[r];
          const auto ur = static_cast<std::size_t>(op.ref);
          switch (op.kind) {
            case spmd::RefOp::Kind::Local:
              rs.refs[static_cast<std::size_t>(r)] =
                  (*rs.rows[ur])[static_cast<std::size_t>(op.a)];
              break;
            case spmd::RefOp::Kind::Halo:
              rs.refs[static_cast<std::size_t>(r)] =
                  (*rs.halo_rows[ur])[static_cast<std::size_t>(op.a)];
              break;
            case spmd::RefOp::Kind::Remote:
              rs.refs[static_cast<std::size_t>(r)] =
                  bufs[static_cast<std::size_t>(op.a * procs + p)]
                      [static_cast<std::size_t>(op.b)];
              break;
          }
        }
        if (guard && !guard->holds(rs.refs.data(), vals, rs.stack.data()))
          continue;
        const double value =
            kern.rhs().eval(rs.refs.data(), vals, rs.stack.data());
        const i64 slot = rv.lhs_slot[static_cast<std::size_t>(e)];
        if (slot < 0)
          throw RuntimeFault("local write out of bounds on " +
                             clause.lhs_array);
        out_row[static_cast<std::size_t>(slot)] = value;
      }
      sched_pcs_[static_cast<std::size_t>(p)].sched += rv.n;
    }
    VCAL_TRACE(tr, p, obs::EventKind::GatherEnd, step_id, rv.n);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/2);

  // Accounting: volumes, counters, and the message matrix from the
  // schedule (bit-identical stats, last_step_counters, matrix, and
  // sim_time). Only a replay of a stored schedule is a hit; the
  // inspected first execution counted as a build.
  if (replay) {
    ++comm_.sched_hits;
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedHit, step_id);
  }
  comm_.packed_values += sched.packed_ops;
  comm_.packed_bytes += sched.packed_ops * static_cast<i64>(sizeof(double));
  comm_.unpacked_values += sched.packed_ops;
  for (const PathCounters& c : sched_pcs_) paths_ += c;
  if (tr)
    for (i64 p = 0; p < procs; ++p) {
      const PathCounters& c = sched_pcs_[static_cast<std::size_t>(p)];
      tr->record(p, obs::EventKind::KernelPath, step_id, c.fused, c.generic,
                 c.interp, c.sched);
    }
  for (i64 s = 0; s < procs; ++s)
    for (i64 d = 0; d < procs; ++d)
      message_matrix_[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(d)] +=
          sched.matrix_delta[static_cast<std::size_t>(s * procs + d)];
  for (i64 p = 0; p < procs; ++p) {
    RankCounters& c = sched_counters_[static_cast<std::size_t>(p)];
    const RankCounters live = c;
    c = sched.counters[static_cast<std::size_t>(p)];
    c.halo_bulk = live.halo_bulk;
    c.halo_values = live.halo_values;
  }
  finish_step(sched_counters_);
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
}

void DistMachine::run_redistribute(const spmd::RedistStep& step) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistBegin, step_id);
  const decomp::ArrayDesc& old_desc = program_.arrays.at(step.array);
  decomp::RedistPlan plan =
      decomp::plan_redistribution(old_desc, step.new_desc);

  // Allocate target buffers, copy stationary elements, apply moves.
  std::vector<std::vector<double>> fresh(
      static_cast<std::size_t>(program_.procs));
  for (i64 p = 0; p < program_.procs; ++p)
    fresh[static_cast<std::size_t>(p)].assign(
        static_cast<std::size_t>(step.new_desc.local_capacity(p)), 0.0);

  std::vector<RankCounters> counters(
      static_cast<std::size_t>(program_.procs));
  std::vector<std::vector<i64>> pair_counts(
      static_cast<std::size_t>(program_.procs),
      std::vector<i64>(static_cast<std::size_t>(program_.procs), 0));
  decomp::for_each_index(old_desc, [&](const std::vector<i64>& idx) {
    i64 src = old_desc.owner(idx);
    i64 dst = step.new_desc.owner(idx);
    double v = store_.read_local(step.array, src,
                                 old_desc.local_linear(idx));
    fresh[static_cast<std::size_t>(dst)][static_cast<std::size_t>(
        step.new_desc.local_linear(idx))] = v;
    ++counters[static_cast<std::size_t>(src)].iterations;
    if (src != dst) {
      ++counters[static_cast<std::size_t>(src)].sends;
      ++counters[static_cast<std::size_t>(dst)].receives;
      ++pair_counts[static_cast<std::size_t>(src)]
                   [static_cast<std::size_t>(dst)];
      ++message_matrix_[static_cast<std::size_t>(src)]
                       [static_cast<std::size_t>(dst)];
    }
  });
  // The mover also aggregates: all elements migrating between one rank
  // pair travel as one bulk message.
  for (i64 src = 0; src < program_.procs; ++src)
    for (i64 dst = 0; dst < program_.procs; ++dst)
      if (pair_counts[static_cast<std::size_t>(src)]
                     [static_cast<std::size_t>(dst)] > 0) {
        ++counters[static_cast<std::size_t>(src)].bulk_sends;
        ++counters[static_cast<std::size_t>(dst)].bulk_receives;
        VCAL_TRACE(tr, src, obs::EventKind::MsgSend, step_id, dst,
                   pair_counts[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)]);
        VCAL_TRACE(tr, dst, obs::EventKind::MsgRecv, step_id, src,
                   pair_counts[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)]);
      }
  require(static_cast<i64>(plan.moves.size()) ==
              std::accumulate(counters.begin(), counters.end(), i64{0},
                              [](i64 acc, const RankCounters& c) {
                                return acc + c.sends;
                              }),
          "redistribution plan and execution disagree on message count");
  stats_.redist_messages += static_cast<i64>(plan.moves.size());

  store_.replace(step.array, std::move(fresh));
  program_.arrays.insert_or_assign(step.array, step.new_desc);
  // Later clauses look their plans up under the new layout; entries
  // for the old one stay for when the array returns to it.
  const spmd::LayoutId layout = lookup_.relayout(step.new_desc);
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistEpoch, step_id, layout);
  finish_step(counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistEnd, step_id);
}

std::string DistMachine::message_matrix_str() const {
  std::string out = "messages src\\dst";
  for (i64 d = 0; d < program_.procs; ++d) out += pad_left(cat(d), 8);
  out += "\n";
  for (i64 s = 0; s < program_.procs; ++s) {
    out += pad_left(cat(s), 16);
    for (i64 d = 0; d < program_.procs; ++d)
      out += pad_left(
          cat(message_matrix_[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(d)]),
          8);
    out += "\n";
  }
  return out;
}

std::vector<double> DistMachine::gather(const std::string& name) const {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(),
          "DistMachine::gather unknown " + name);
  return store_.gather(it->second);
}

}  // namespace vcal::rt
