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

  // Communication-schedule dispatch (inspector–executor): replay when
  // the entry holds a schedule, otherwise run the tagged path and record
  // one. Armed faults always take the tagged path and record nothing.
  spmd::CommSchedule* rec = nullptr;
  std::unique_ptr<spmd::CommSchedule> rec_owner;
  if (engine_.comm_schedules) {
    if (fault_armed) {
      ++comm_.sched_fallbacks;
      VCAL_TRACE(tr, ctl, obs::EventKind::SchedFallback, step_id, 1);
    } else if (entry.sched) {
      run_clause_scheduled(
          clause, plan, static_cast<const spmd::CommSchedule&>(*entry.sched),
          js, jfns);
      return;
    } else {
      rec_owner = std::make_unique<spmd::CommSchedule>();
      rec_owner->init(plan.procs(), static_cast<int>(clause.loops.size()),
                      static_cast<int>(clause.refs.size()));
      rec = rec_owner.get();
    }
  }
  std::vector<std::vector<i64>> matrix_before;
  if (rec) matrix_before = message_matrix_;
  // Recording steps must run the bytecode loop: the note_* hooks have
  // to observe every element the inspector will replay.
  if (rec) jfns = nullptr;

  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;

  // Copy-in snapshot when the clause reads its own target: senders and
  // local reads must observe pre-clause values.
  bool lhs_read = false;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) lhs_read = true;
  const std::vector<std::vector<double>>* snap = nullptr;
  if (lhs_read) {
    store_.copy_into(clause.lhs_array, snap_);
    snap = &snap_;
  }

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
        i64 local = rd.local_linear(ridx);
        double value = read_row(row, local, r);
        i64 tag = kern.tag(r, vals.data());
        if (lhs.is_replicated()) {
          // Every rank computes every index: broadcast to the others.
          for (i64 dst = 0; dst < procs; ++dst) {
            if (dst == p) continue;
            if (halo_covers(rd, dst, ridx))
              continue;  // receiver reads its halo copy
            Channel& ch = channel(p, dst);
            ch.push(tag, value);
            if (rec)
              ch.meta.emplace_back(static_cast<std::int32_t>(r), local);
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
          Channel& ch = channel(p, dst);
          ch.push(tag, value);
          if (rec)
            ch.meta.emplace_back(static_cast<std::int32_t>(r), local);
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
    for (int r = 0; r < nrefs; ++r) {
      rows[static_cast<std::size_t>(r)] = &ref_row(r, p);
      hrows[static_cast<std::size_t>(r)] =
          halo_row(clause.refs[static_cast<std::size_t>(r)].array, p);
    }
    std::vector<double>& out_row =
        store_.local_row_mut(clause.lhs_array, p);
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
      lhs_addr = spmd::make_local_addr(lhs, p);
      g0l.resize(static_cast<std::size_t>(lhs.ndims()));
      dgl.resize(static_cast<std::size_t>(lhs.ndims()));
      raddrs.reserve(n);
      g0s.resize(n);
      dgs.resize(n);
      for (int r = 0; r < nrefs; ++r) {
        const decomp::ArrayDesc& rd = plan.ref_desc(r);
        raddrs.push_back(spmd::make_local_addr(rd, p));
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

    // Element-at-a-time body: owner test, local/halo/remote operand
    // fetch, guard, RHS, and the local write.
    auto element = [&](const std::vector<i64>& vals) {
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
        if (rd.is_replicated()) {
          i64 local = rd.local_linear(ridx);
          ref_values[static_cast<std::size_t>(r)] = read_row(row, local, r);
          ++rc.local_reads;
          if (rec) rec->note_local(p, r, local);
          continue;
        }
        i64 src = rd.owner(ridx);
        if (src == p) {
          i64 local = rd.local_linear(ridx);
          ref_values[static_cast<std::size_t>(r)] = read_row(row, local, r);
          ++rc.local_reads;
          if (rec) rec->note_local(p, r, local);
        } else if (halo_covers(rd, p, ridx)) {
          // Overlapped decomposition: the value is already cached in
          // this rank's halo row.
          const i64 hs = rd.halo_slot(p, ridx[0]);
          ref_values[static_cast<std::size_t>(r)] =
              (*hrows[static_cast<std::size_t>(r)])[static_cast<std::size_t>(
                  hs)];
          ++rc.halo_reads;
          if (rec) rec->note_halo(p, r, hs);
        } else {
          // Blocking receive from the in-flight bulk message.
          i64 tag = kern.tag(r, vals.data());
          Channel& ch = channel(src, p);
          const double* value = ch.consume(tag);
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
          if (rec) rec->note_remote(p, r, src, static_cast<i64>(ch.last_k));
        }
      }
      if (rec) {
        // Record before the guard: replay evaluates guards live, so
        // guarded-off elements must still carry their operand offsets.
        // -1 encodes "the tagged path would fault on an in-range-guarded
        // write".
        i64 rslot = lhs.local_linear(out_idx);
        if (!in_range(rslot, 0, static_cast<i64>(out_row.size()) - 1))
          rslot = -1;
        rec->note_element(p, rslot, vals.data());
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

    gen::EnumStats es;
    const spmd::IterationSpace& space = plan.modify_space(p);
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
          // bounds and resident on this rank for the LHS and every ref,
          // so the body carries no checks, no calls through the plan,
          // and no allocations — just strided row reads, the bytecode
          // evaluator on a preallocated stack, and a strided row write.
          i64 la = lrun.addr0 + (k0 - lrun.k_lo) * lrun.stride;
          for (int r = 0; r < nrefs; ++r) {
            auto ur = static_cast<std::size_t>(r);
            raddr[ur] =
                rruns[ur].addr0 + (k0 - rruns[ur].k_lo) * rruns[ur].stride;
          }
          i64 v = run.start + k0 * run.stride;
          const i64 fused_n = k1 - k0 + 1;
          if (jfns) {
            // Every element of [k0, k1] is proven in bounds and local,
            // so the jitted loop needs only the strides: addressing
            // arrives as arguments, the guard/RHS are compiled in.
            for (int r = 0; r < nrefs; ++r)
              rstride[static_cast<std::size_t>(r)] =
                  rruns[static_cast<std::size_t>(r)].stride;
            jfns->fused(out_row.data(), la, lrun.stride, row_ptrs.data(),
                        raddr.data(), rstride.data(), vals.data(), v,
                        run.stride, fused_n);
            pc.jit += fused_n;
          } else {
            for (i64 k = 0; k < fused_n; ++k) {
              vals[static_cast<std::size_t>(inner)] = v;
              if (rec) {
                // Fused elements are proven local and in bounds for the
                // LHS and every ref; record their resolved offsets.
                rec->note_element(p, la, vals.data());
                for (int r = 0; r < nrefs; ++r)
                  rec->note_local(p, r, raddr[static_cast<std::size_t>(r)]);
              }
              for (int r = 0; r < nrefs; ++r) {
                auto ur = static_cast<std::size_t>(r);
                ref_values[ur] =
                    (*rows[ur])[static_cast<std::size_t>(raddr[ur])];
                raddr[ur] += rruns[ur].stride;
              }
              if (!guard ||
                  guard->holds(ref_values.data(), vals.data(), stack.data()))
                out_row[static_cast<std::size_t>(la)] =
                    rhs.eval(ref_values.data(), vals.data(), stack.data());
              la += lrun.stride;
              v += run.stride;
            }
            pc.fused += fused_n;
          }
          rc.local_reads += fused_n * nrefs;
          for (i64 k = k1 + 1; k < run.count; ++k) {
            vals[static_cast<std::size_t>(inner)] =
                run.start + k * run.stride;
            element(vals);
          }
          pc.generic += run.count - fused_n;
        },
        &es);
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
  if (rec) {
    // Freeze each source rank's pack program from the channel metadata
    // (post-sort, post-dedup order — exactly what replay reproduces),
    // capture the clean step's counters and message-matrix increments,
    // and publish the schedule into the plan-cache entry.
    for (i64 src = 0; src < procs; ++src) {
      spmd::SendPlan& sp = rec->send[static_cast<std::size_t>(src)];
      sp.dst_begin.assign(static_cast<std::size_t>(procs) + 1, 0);
      for (i64 dst = 0; dst < procs; ++dst) {
        sp.dst_begin[static_cast<std::size_t>(dst)] =
            static_cast<i64>(sp.ops.size());
        for (const auto& [ref, off] : channel(src, dst).meta)
          sp.ops.push_back(spmd::PackOp{ref, off});
      }
      sp.dst_begin[static_cast<std::size_t>(procs)] =
          static_cast<i64>(sp.ops.size());
    }
    rec->counters = counters;
    for (i64 s = 0; s < procs; ++s)
      for (i64 d = 0; d < procs; ++d)
        rec->matrix_delta[static_cast<std::size_t>(s * procs + d)] =
            message_matrix_[static_cast<std::size_t>(s)]
                           [static_cast<std::size_t>(d)] -
            matrix_before[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(d)];
    rec->seal();
    ++comm_.sched_builds;
    entry.sched = std::move(rec_owner);
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedBuild, step_id,
               plans_->schedules());
  }
  finish_step(counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
}

// Executor half of the inspector–executor split. The schedule froze the
// step's communication pattern: each source rank packs values
// positionally into the reused (src, dst) buffers in the exact order the
// tagged pack() produced, and each destination satisfies every operand
// by recorded offset — no tags, no sorting, no hashing, so per-step
// receive cost is O(m) instead of O(m log m). Guards and right-hand
// sides are evaluated live (only the pattern is compiled, never values);
// counters and the message matrix replay verbatim from the recording
// step, keeping every observable statistic bit-identical to the tagged
// path.
void DistMachine::run_clause_scheduled(const Clause& clause,
                                       const ClausePlan& plan,
                                       const spmd::CommSchedule& sched,
                                       spmd::JitState* js,
                                       const spmd::JitFns* jfns) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;
  const i64 procs = sched.procs;
  const int nrefs = sched.nrefs;
  const int nloops = sched.nloops;

  const spmd::ClauseKernel& kern = plan.kernel();

  // Copy-in snapshot when the clause reads its own target: packing and
  // local gathers must observe pre-clause values.
  bool lhs_read = false;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) lhs_read = true;
  const std::vector<std::vector<double>>* snap = nullptr;
  if (lhs_read) {
    store_.copy_into(clause.lhs_array, snap_);
    snap = &snap_;
  }

  // Persistent scratch: sized on the first scheduled step, reused by
  // every later one (the steady state allocates nothing).
  if (static_cast<i64>(sched_counters_.size()) != procs) {
    sched_counters_.assign(static_cast<std::size_t>(procs), RankCounters{});
    sched_pcs_.assign(static_cast<std::size_t>(procs), PathCounters{});
    replay_scratch_.resize(static_cast<std::size_t>(procs));
  }
  for (RankCounters& c : sched_counters_) c = RankCounters{};
  for (PathCounters& c : sched_pcs_) c = PathCounters{};

  // Phase 0: live halo refresh (halo *values* change step to step; the
  // counters it accumulates are deterministic and replay verbatim below,
  // so the scratch tallies are discarded).
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

  // Accounting: volumes from the schedule; counters and the message
  // matrix replay verbatim from the recording step (bit-identical
  // stats, last_step_counters, matrix, and sim_time).
  ++comm_.sched_hits;
  comm_.packed_values += sched.packed_ops;
  comm_.packed_bytes += sched.packed_ops * static_cast<i64>(sizeof(double));
  comm_.unpacked_values += sched.remote_ops;
  VCAL_TRACE(tr, ctl, obs::EventKind::SchedHit, step_id);
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
  finish_step(sched.counters);
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
