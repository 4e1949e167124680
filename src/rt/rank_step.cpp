#include "rt/rank_step.hpp"

#include <tuple>

#include "spmd/kernel.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::rt {

using spmd::ClausePlan;

namespace {

double read_row(const std::vector<double>& row, i64 local,
                const std::string& array) {
  if (!in_range(local, 0, static_cast<i64>(row.size()) - 1))
    throw RuntimeFault("local read out of bounds on " + array);
  return row[static_cast<std::size_t>(local)];
}

// A receiver covers a remote operand with its halo copy.
bool halo_covers(const decomp::ArrayDesc& rd, i64 rank,
                 const std::vector<i64>& idx) {
  return rd.halo() > 0 && rd.in_halo(rank, idx);
}

}  // namespace

// ---- Tagged path ----------------------------------------------------------

void send_rank(const ClausePlan& plan, const RankSite& site,
               const RankRows& rr, Channel* out, RankCounters& rc_out,
               PathCounters& pc_out, i64* matrix_row) {
  const prog::Clause& clause = plan.clause();
  const spmd::ClauseKernel& kern = plan.kernel();
  const bool kaff = kern.affine();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 p = site.p;
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::SendBegin, site.step);
  // Rank-local tallies, published once at the end: the driver's slots
  // for the other ranks share cache lines with this rank's.
  RankCounters rc = rc_out;
  PathCounters pc = pc_out;
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
    const std::string& name = clause.refs[static_cast<std::size_t>(r)].array;
    const std::vector<double>& row = *rr.rows[static_cast<std::size_t>(r)];
    const spmd::IterationSpace& space = plan.reside_space(p, r);
    const spmd::SubRecords& rsubs = kern.ref_subs(r);
    const spmd::SubRecords& lsubs = kern.lhs_subs();
    spmd::ArrayAddr ref_addr;
    if (kaff) {
      ref_addr = spmd::make_local_addr(rd, p);
      g0r.resize(rsubs.affine.size());
      dgr.resize(rsubs.affine.size());
    }
    auto push = [&](i64 dst, i64 tag, double value) {
      out[dst].push(tag, value);
      ++rc.sends;
    };
    // Per-element send decision: route each resident operand to the
    // rank that computes the element reading it.
    auto emit = [&](const std::vector<i64>& vals) {
      spmd::ClauseKernel::subs_into(rsubs, vals.data(), ridx);
      if (!rd.in_bounds(ridx))
        throw RuntimeFault("read out of bounds on " + name);
      const double value = read_row(row, rd.locate(ridx).local, name);
      const i64 tag = kern.tag(r, vals.data());
      if (lhs.is_replicated()) {
        // Every rank computes every index: broadcast to the others.
        for (i64 dst = 0; dst < procs; ++dst)
          if (dst != p && !halo_covers(rd, dst, ridx)) push(dst, tag, value);
        return;
      }
      spmd::ClauseKernel::subs_into(lsubs, vals.data(), out_idx);
      if (!lhs.in_bounds(out_idx)) return;  // nobody computes this
      const i64 dst = lhs.locate(out_idx).owner;
      if (dst == p) return;  // Modify ∩ Reside: local update later
      if (halo_covers(rd, dst, ridx)) return;  // receiver reads its halo
      push(dst, tag, value);
    };
    space.for_each_run(
        [&](std::vector<i64>& vals, const gen::Piece& run) {
          // Elements whose LHS target this rank itself owns send nothing
          // (Modify ∩ Reside); when a strided-run proof covers both
          // sides — ref in bounds, stored here, and LHS in bounds, owned
          // here — the whole subrange is skipped without touching it.
          // Run edges, unprovable runs and non-affine clauses go element
          // at a time.
          i64 k0 = 0, k1 = -1;
          if (kaff && !lhs.is_replicated()) {
            spmd::StridedRun rrun, lrun;
            spmd::fill_progression(rsubs.affine, vals, inner, run,
                                   g0r.data(), dgr.data());
            bool ok = spmd::strided_run(ref_addr, g0r.data(), dgr.data(),
                                        run.count, &rrun);
            if (ok) {
              spmd::fill_progression(lsubs.affine, vals, inner, run,
                                     g0l.data(), dgl.data());
              ok = spmd::strided_run(lhs_addr, g0l.data(), dgl.data(),
                                     run.count, &lrun);
            }
            if (ok) {
              k0 = std::max(rrun.k_lo, lrun.k_lo);
              k1 = std::min(rrun.k_hi, lrun.k_hi);
            }
            if (k1 < k0) {
              k0 = 0;
              k1 = -1;
            }
          }
          for (i64 k = 0; k < k0; ++k) {
            vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
            emit(vals);
          }
          for (i64 k = k1 + 1; k < run.count; ++k) {
            vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
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
  // One sorted bulk message per destination this rank sends to; the
  // message matrix counts every push, before pack() dedups.
  for (i64 dst = 0; dst < procs; ++dst) {
    Channel& ch = out[dst];
    if (ch.msgs.empty()) continue;
    matrix_row[dst] += static_cast<i64>(ch.msgs.size());
    ch.pack();
    ++rc.bulk_sends;
    VCAL_TRACE(site.tr, site.lane, obs::EventKind::MsgSend, site.step, dst,
               static_cast<i64>(ch.msgs.size()));
  }
  rc_out = rc;
  pc_out = pc;
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::SendEnd, site.step);
}

bool perturb(Channel& ch, const FaultPlan& f) {
  switch (f.kind) {
    case FaultPlan::Kind::DropMessage: return ch.drop(f.index);
    case FaultPlan::Kind::DuplicateMessage: return ch.duplicate(f.index);
    case FaultPlan::Kind::ReorderChannel: return ch.reorder();
    default: return false;
  }
}

void count_received(const Channel* in, i64 in_stride, i64 procs,
                    const RankSite& site, RankCounters& rc) {
  for (i64 src = 0; src < procs; ++src) {
    const Channel& ch = in[src * in_stride];
    if (ch.msgs.empty()) continue;
    ++rc.bulk_receives;
    VCAL_TRACE(site.tr, site.lane, obs::EventKind::MsgRecv, site.step, src,
               static_cast<i64>(ch.msgs.size()));
  }
}

void receive_update_rank(const ClausePlan& plan, const RankSite& site,
                         const RankRows& rr, std::vector<double>& out_row,
                         Channel* in, i64 in_stride, RankCounters& rc_out,
                         PathCounters& pc_out) {
  const prog::Clause& clause = plan.clause();
  const spmd::ClauseKernel& kern = plan.kernel();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 p = site.p;
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::ClauseBegin, site.step);
  RankCounters rc = rc_out;  // rank-local tallies, as in send_rank
  PathCounters pc = pc_out;
  std::vector<double> ref_values(clause.refs.size());
  std::vector<i64> ridx, out_idx;  // per-rank scratch
  std::vector<const double*> row_ptrs(static_cast<std::size_t>(nrefs));
  for (int r = 0; r < nrefs; ++r)
    row_ptrs[static_cast<std::size_t>(r)] =
        rr.rows[static_cast<std::size_t>(r)]->data();
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
      const auto ur = static_cast<std::size_t>(r);
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      const std::string& name = clause.refs[ur].array;
      spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), ridx);
      if (!rd.in_bounds(ridx))
        throw RuntimeFault("read out of bounds on " + name);
      const decomp::Location at = rd.locate(ridx);
      const i64 src = rd.is_replicated() ? p : at.owner;
      if (src == p) {
        ref_values[ur] = read_row(*rr.rows[ur], at.local, name);
        ++rc.local_reads;
      } else if (halo_covers(rd, p, ridx)) {
        // Overlapped decomposition: the value is already cached in this
        // rank's halo row.
        ref_values[ur] = (*rr.halo[ur])[static_cast<std::size_t>(
            rd.halo_slot(p, ridx[0]))];
        ++rc.halo_reads;
      } else {
        // Blocking receive from the in-flight bulk message.
        const i64 tag = kern.tag(r, vals.data());
        const double* value = in[src * in_stride].consume(tag);
        if (value == nullptr) {
          std::string elem = name + "[";
          for (std::size_t d = 0; d < ridx.size(); ++d)
            elem += cat(d ? ", " : "", ridx[d]);
          elem += "]";
          std::string diag = cat(
              "deadlock: rank ", p, " blocked on pending receive of ", elem,
              " (tag ", tag, ") from rank ", src,
              ", which never sent it — inconsistent schedules or a lost "
              "message");
          if (site.tr) {
            diag += cat("; last traced event on rank ", p, ": ",
                        site.tr->last_event_str(site.lane));
            site.tr->record(site.lane, obs::EventKind::RecvWait, site.step,
                            src, tag);
          }
          throw DeadlockError(diag);
        }
        ref_values[ur] = *value;
        ++rc.receives;
        ++rc.remote_reads;
      }
    }
    if (guard && !guard->holds(ref_values.data(), vals.data(), stack.data()))
      return;
    const double value =
        rhs.eval(ref_values.data(), vals.data(), stack.data());
    const i64 slot = lhs.locate(out_idx).local;
    if (!in_range(slot, 0, static_cast<i64>(out_row.size()) - 1))
      throw RuntimeFault("local write out of bounds on " + clause.lhs_array);
    out_row[static_cast<std::size_t>(slot)] = value;
  };

  // Fused strided loop: every element of the run is proven in bounds and
  // resident on this rank for the LHS and every ref, so the body carries
  // no checks, no calls through the plan, and no allocations — just
  // strided row reads, the bytecode evaluator on a preallocated stack,
  // and a strided row write.
  auto fused = [&](std::vector<i64>& vals, const spmd::FusedRun& f) {
    i64 la = f.la, v = f.v0;
    for (i64 k = 0; k < f.n; ++k) {
      vals[static_cast<std::size_t>(inner)] = v;
      for (int r = 0; r < nrefs; ++r) {
        auto ur = static_cast<std::size_t>(r);
        ref_values[ur] = row_ptrs[ur][f.raddr[ur]];
        f.raddr[ur] += f.rstride[ur];
      }
      if (!guard || guard->holds(ref_values.data(), vals.data(), stack.data()))
        out_row[static_cast<std::size_t>(la)] =
            rhs.eval(ref_values.data(), vals.data(), stack.data());
      la += f.lstride;
      v += f.vstride;
    }
    pc.fused += f.n;
    rc.local_reads += f.n * nrefs;
  };

  gen::EnumStats es;
  walk_modify_elements(plan, p, /*dense=*/false, &es, element, fused);
  rc.iterations += es.loop_iters;
  rc.tests += es.tests;
  rc_out = rc;
  pc_out = pc;
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::ClauseEnd, site.step);
}

void check_delivered(i64 p, const Channel* in, i64 in_stride, i64 procs) {
  i64 leftover = 0;
  for (i64 src = 0; src < procs; ++src)
    leftover += in[src * in_stride].undelivered();
  if (leftover > 0)
    throw RuntimeFault(cat("rank ", p, " finished the clause with ",
                           leftover, " undelivered messages"));
}

// ---- Scheduled path -------------------------------------------------------

// Each destination rank p walks Modify_p (walk_modify, so element order
// and the fused split match the tagged phase 2) and resolves every
// operand as local, halo, or remote; a remote operand is appended to the
// (owner, p) pack list in p's walk order, and its receive slot is its
// position there. The counters come out as the tagged step counts them:
// reads and receives from the walk, the senders' phase-1 enumeration
// charges from their Reside_p spaces, and sends, bulk messages and
// message-matrix increments from the pack-list sizes (halo counters are
// left to the live refresh). A rank refuses when any element would
// fault — LHS or ref out of bounds, a local offset outside its row, a
// subscript that faults as it evaluates.
// Where each access's elements live along a stretch, stepped without
// dividing: a Decomp1D cursor per dimension, folded into (owner, local)
// the way ArrayDesc::locate folds them, or, for a replicated array, a
// dense offset (owner 0). start(p, a) checks access a's bounds at a
// stretch's two ends (each dimension is monotone along it) and places
// rank p's cursors at its first element (a division pair per dimension,
// and a Step split per moving one), at(p, a) reads them and advance(p, a)
// steps them to the next element; halo_slot(p, a, g) is
// ArrayDesc::halo_slot without its lookups. Access 0 is the clause's
// LHS, access 1 + r its ref r, as in a Stretch. The table is built once
// per clause with every rank's cursors, each rank's slice padded apart
// from its neighbours', so a rank's walk allocates nothing for it.
class Inspector::Locators {
 public:
  Locators(const ClausePlan& plan, i64 procs) {
    const int nrefs = static_cast<int>(plan.clause().refs.size());
    acc_.resize(static_cast<std::size_t>(nrefs + 1));
    std::size_t dims = 0;
    bool halo = false;
    for (int a = 0; a <= nrefs; ++a) {
      Access& x = acc_[static_cast<std::size_t>(a)];
      x.desc = a == 0 ? &plan.lhs_desc() : &plan.ref_desc(a - 1);
      x.first = dims;
      x.nd = static_cast<std::size_t>(x.desc->ndims());
      dims += x.nd;
      halo = halo || x.desc->halo() > 0;
    }
    dims_.resize(dims);
    for (const Access& x : acc_) {
      i64 w = 1;  // a replicated array's row-major dense weights
      for (int d = static_cast<int>(x.nd) - 1; d >= 0; --d) {
        Dim& dim = dims_[x.first + static_cast<std::size_t>(d)];
        dim.lo = x.desc->lo(d);
        dim.hi = x.desc->hi(d);
        dim.weight = w;
        w *= x.desc->size(d);
        if (!x.desc->is_replicated()) dim.decomp = &x.desc->decomp().dim(d);
      }
    }
    // One spare slot between ranks' slices keeps them off each other's
    // cache lines.
    slice_ = dims + 1;
    cur_.resize(slice_ * static_cast<std::size_t>(procs));
    if (!halo) return;
    halo_.resize(acc_.size() * static_cast<std::size_t>(procs));
    for (i64 p = 0; p < procs; ++p)
      for (std::size_t a = 0; a < acc_.size(); ++a) {
        if (acc_[a].desc->halo() == 0) continue;
        Halo& h = halo_[static_cast<std::size_t>(p) * acc_.size() + a];
        std::tie(h.llo, h.lhi) = acc_[a].desc->halo_range(p, -1);
        std::tie(h.rlo, h.rhi) = acc_[a].desc->halo_range(p, 1);
      }
  }

  const decomp::ArrayDesc& desc(std::size_t a) const { return *acc_[a].desc; }

  /// False, placing nothing, when the access leaves its array somewhere
  /// on the stretch's n elements.
  bool start(i64 p, std::size_t a, const i64* g0, const i64* dg, i64 n) {
    const Access& x = acc_[a];
    const Dim* dim = &dims_[x.first];
    for (std::size_t d = 0; d < x.nd; ++d)
      if (!in_range(g0[d], dim[d].lo, dim[d].hi) ||
          !in_range(g0[d] + (n - 1) * dg[d], dim[d].lo, dim[d].hi))
        return false;
    State* st = state(p, x);
    if (x.desc->is_replicated()) {
      // One pseudo-dimension: the dense offset, in a block that never
      // ends.
      st->cur = {0, 0, 0};
      st->step = {INT64_MAX, 1, 0, 0, 0};
      for (std::size_t d = 0; d < x.nd; ++d) {
        st->cur.local += (g0[d] - dim[d].lo) * dim[d].weight;
        st->step.local += dg[d] * dim[d].weight;
      }
      st->moves = st->step.local != 0;
      return true;
    }
    for (std::size_t d = 0; d < x.nd; ++d) {
      st[d].cur = dim[d].decomp->cursor(g0[d] - dim[d].lo);
      st[d].moves = dg[d] != 0;
      if (st[d].moves) st[d].step = dim[d].decomp->step(dg[d]);
    }
    return true;
  }

  decomp::Location at(i64 p, std::size_t a) const {
    const Access& x = acc_[a];
    const State* st = state(p, x);
    if (x.nd == 1 || x.desc->is_replicated())
      return {st->cur.owner, st->cur.local};
    const Dim* dim = &dims_[x.first];
    decomp::Location l;
    for (std::size_t d = 0; d < x.nd; ++d) {
      const decomp::Cursor& c = st[d].cur;
      l.owner = l.owner * dim[d].decomp->procs() + c.owner;
      l.local = l.local * dim[d].decomp->local_capacity(c.owner) + c.local;
    }
    return l;
  }

  void advance(i64 p, std::size_t a) {
    const Access& x = acc_[a];
    State* st = state(p, x);
    const std::size_t nd = x.desc->is_replicated() ? 1 : x.nd;
    for (std::size_t d = 0; d < nd; ++d)
      if (st[d].moves) st[d].cur.advance(st[d].step);
  }

  /// The slot of 1-D index g in rank p's halo row of access a, or -1.
  i64 halo_slot(i64 p, std::size_t a, i64 g) const {
    const Halo& h = halo_[static_cast<std::size_t>(p) * acc_.size() + a];
    if (in_range(g, h.llo, h.lhi)) return g - h.llo;
    if (in_range(g, h.rlo, h.rhi)) return h.lhi - h.llo + 1 + g - h.rlo;
    return -1;
  }

 private:
  struct Access {
    const decomp::ArrayDesc* desc = nullptr;
    std::size_t first = 0, nd = 0;  // its dimensions in dims_
  };
  struct Dim {
    const decomp::Decomp1D* decomp = nullptr;
    i64 lo = 0, hi = 0;
    i64 weight = 0;  // replicated arrays
  };
  struct State {
    decomp::Cursor cur;
    decomp::Step step;
    bool moves = false;  // the stretch advances this dimension
  };
  struct Halo {
    i64 llo = 0, lhi = -1, rlo = 0, rhi = -1;
  };

  State* state(i64 p, const Access& x) {
    return &cur_[static_cast<std::size_t>(p) * slice_ + x.first];
  }
  const State* state(i64 p, const Access& x) const {
    return &cur_[static_cast<std::size_t>(p) * slice_ + x.first];
  }

  std::vector<Access> acc_;
  std::vector<Dim> dims_;
  std::size_t slice_ = 0;
  std::vector<State> cur_;  // rank p's from p * slice_
  std::vector<Halo> halo_;  // [p * accesses + a], for overlapped arrays
};

Inspector::Inspector(const ClausePlan& plan)
    : plan_(plan), sched_(std::make_unique<spmd::CommSchedule>()) {
  const i64 procs = plan.procs();
  sched_->init(procs, static_cast<int>(plan.clause().loops.size()),
               static_cast<int>(plan.clause().refs.size()));
  refused_.assign(static_cast<std::size_t>(procs), 0);
  // Local rows are sized by their descriptors' capacities on every rank
  // (DistStore, the worker's rows, copy-in snapshots), so the bound the
  // tagged path checks each operand read against comes from the plan.
  const int nrefs = sched_->nrefs;
  row_len_.resize(static_cast<std::size_t>(nrefs * procs));
  for (int r = 0; r < nrefs; ++r)
    for (i64 q = 0; q < procs; ++q)
      row_len_[static_cast<std::size_t>(r * procs + q)] =
          plan.ref_desc(r).local_capacity(q);
  if (plan.kernel().piecewise())
    locs_ = std::make_unique<Locators>(plan, procs);
}

Inspector::~Inspector() = default;

void Inspector::rank(const RankSite& site) {
  const ClausePlan& plan = plan_;
  const spmd::ClauseKernel& kern = plan.kernel();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 p = site.p;
  const i64 procs = plan.procs();
  const int nrefs = sched_->nrefs;
  spmd::CommSchedule& cs = *sched_;
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::InspectBegin, site.step);
  // Rank-local scratch, published once at the end: the other ranks'
  // walks write the neighbouring slots of the shared arrays.
  RankCounters rc;
  bool bad = false;
  std::vector<std::vector<spmd::PackOp>> from(static_cast<std::size_t>(procs));
  const i64 out_len = lhs.local_capacity(p);
  const i64* row_len = row_len_.data();
  // A non-affine clause has no strided runs: every element is a record.
  if (!kern.affine()) cs.reserve(p, plan.modify_space(p).count());

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
      bad = true;
      return;
    }
    for (int r = 0; r < nrefs; ++r) {
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), ridx);
      if (!rd.in_bounds(ridx)) {
        bad = true;
        return;
      }
      const decomp::Location at = rd.locate(ridx);
      const i64 src = rd.is_replicated() ? p : at.owner;
      if (src != p && halo_covers(rd, p, ridx)) {
        cs.note_halo(p, r, rd.halo_slot(p, ridx[0]));
        ++rc.halo_reads;
        continue;
      }
      if (!in_range(at.local, 0, row_len[r * procs + src] - 1)) {
        bad = true;
        return;
      }
      if (src == p) {
        cs.note_local(p, r, at.local);
        ++rc.local_reads;
      } else {
        std::vector<spmd::PackOp>& list = from[static_cast<std::size_t>(src)];
        cs.note_remote(p, src, static_cast<i64>(list.size()));
        list.push_back(spmd::PackOp{static_cast<std::int32_t>(r), at.local});
        ++rc.receives;
        ++rc.remote_reads;
      }
    }
    // Guards are evaluated on replay, so a write slot outside the row is
    // kept as -1: it faults only if the guard holds.
    i64 slot = lhs.locate(out_idx).local;
    if (!in_range(slot, 0, out_len - 1)) slot = -1;
    cs.note_element(p, slot, vals.data());
  };

  // A stretch notes the records the element body would, but every
  // access is affine along it: its bounds are checked at its two ends,
  // and Locators step each access instead of resolving it in N-D. Halo
  // coverage is a compare against p's halo ranges (1-D block arrays
  // only), the row-length check a compare per operand.
  Locators* const locs = locs_.get();
  const int nloops = cs.nloops;
  const auto inner = static_cast<std::size_t>(nloops - 1);
  i64 stretched = 0;
  auto stretch = [&](std::vector<i64>& vals, const Stretch& s) {
    if (bad) return;
    for (int a = 0; a <= nrefs; ++a)
      if (!locs->start(p, static_cast<std::size_t>(a), s.g0 + s.at[a],
                       s.dg + s.at[a], s.n)) {
        bad = true;
        return;
      }
    const spmd::CommSchedule::Records out = cs.append(p, s.n);
    i64* ids = out.ids;
    i64* offs = out.offs;
    i64 local_reads = 0, remote_reads = 0, halo_reads = 0;
    bool oob = false;
    for (i64 k = 0; k < s.n; ++k) {
      for (int r = 0; r < nrefs; ++r, ++ids, ++offs) {
        const auto a = static_cast<std::size_t>(r + 1);
        const decomp::ArrayDesc& rd = locs->desc(a);
        const decomp::Location at = locs->at(p, a);
        locs->advance(p, a);
        const i64 src = rd.is_replicated() ? p : at.owner;
        if (src != p && rd.halo() > 0) {
          const i64 slot =
              locs->halo_slot(p, a, s.g0[s.at[a]] + k * s.dg[s.at[a]]);
          if (slot >= 0) {
            *ids = cs.halo_base(r);
            *offs = slot;
            ++halo_reads;
            continue;
          }
        }
        if (!in_range(at.local, 0, row_len[r * procs + src] - 1)) {
          bad = true;
          return;
        }
        if (src == p) {
          *ids = r;
          *offs = at.local;
          ++local_reads;
        } else {
          std::vector<spmd::PackOp>& list = from[static_cast<std::size_t>(src)];
          *ids = cs.packed_base(src);
          *offs = static_cast<i64>(list.size());
          list.push_back(spmd::PackOp{static_cast<std::int32_t>(r), at.local});
          ++remote_reads;
        }
      }
      i64 slot = locs->at(p, 0).local;
      locs->advance(p, 0);
      if (!in_range(slot, 0, out_len - 1)) {
        slot = -1;
        oob = true;
      }
      out.slot[k] = slot;
      for (int d = 0; d < nloops; ++d) out.vals[k * nloops + d] = vals[d];
      vals[inner] += s.vstride;
    }
    rc.local_reads += local_reads;
    rc.halo_reads += halo_reads;
    rc.receives += remote_reads;
    rc.remote_reads += remote_reads;
    if (oob) cs.recv[static_cast<std::size_t>(p)].oob_slot = true;
    stretched += s.n;
  };
  // A fused run is proven local and in bounds for the LHS and every ref:
  // note it as one run.
  auto fused = [&](std::vector<i64>& vals, const spmd::FusedRun& f) {
    if (bad) return;
    cs.note_run(p, vals.data(), f);
    rc.local_reads += f.n * nrefs;
  };
  gen::EnumStats es;
  try {
    walk_modify(plan, p, /*dense=*/false, &es, element, stretch, fused);
  } catch (const RuntimeFault&) {
    // A subscript that faults as it evaluates (a zero divisor): the
    // tagged path raises it in its own order.
    bad = true;
  }
  rc.iterations += es.loop_iters;
  rc.tests += es.tests;

  // Publish: the counters and the verdict into p's slots, and each pack
  // list, whole, into its source's SendPlan.
  cs.counters[static_cast<std::size_t>(p)] = rc;
  refused_[static_cast<std::size_t>(p)] = bad ? 1 : 0;
  for (i64 src = 0; src < procs; ++src)
    cs.send[static_cast<std::size_t>(src)].to[static_cast<std::size_t>(p)] =
        std::move(from[static_cast<std::size_t>(src)]);
  const spmd::RecvPlan& rv = cs.recv[static_cast<std::size_t>(p)];
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::InspectEnd, site.step, rv.n,
             rv.records(), rv.runs, stretched);
}

std::unique_ptr<spmd::CommSchedule> Inspector::finish() {
  for (char b : refused_)
    if (b) return nullptr;
  // Charge each (src, dst) pack list's traffic to both ends.
  spmd::CommSchedule& cs = *sched_;
  const i64 procs = cs.procs;
  for (i64 src = 0; src < procs; ++src)
    for (i64 dst = 0; dst < procs; ++dst) {
      const auto m = static_cast<i64>(
          cs.send[static_cast<std::size_t>(src)]
              .to[static_cast<std::size_t>(dst)]
              .size());
      if (m == 0) continue;
      RankCounters& sc = cs.counters[static_cast<std::size_t>(src)];
      sc.sends += m;
      ++sc.bulk_sends;
      ++cs.counters[static_cast<std::size_t>(dst)].bulk_receives;
      cs.matrix_delta[static_cast<std::size_t>(src * procs + dst)] = m;
      cs.packed_ops += m;
    }
  return std::move(sched_);
}

void pack_rank(const spmd::CommSchedule& s, const RankSite& site,
               const RankRows& rr, std::vector<double>* out) {
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::PackBegin, site.step);
  const spmd::SendPlan& sp = s.send[static_cast<std::size_t>(site.p)];
  i64 packed = 0;
  for (i64 dst = 0; dst < s.procs; ++dst) {
    std::vector<double>& buf = out[dst];
    buf.clear();
    const std::vector<spmd::PackOp>& ops =
        sp.to[static_cast<std::size_t>(dst)];
    for (const spmd::PackOp& op : ops)
      buf.push_back((*rr.rows[static_cast<std::size_t>(op.ref)])
                        [static_cast<std::size_t>(op.offset)]);
    const auto m = static_cast<i64>(ops.size());
    packed += m;
    if (m > 0)
      VCAL_TRACE(site.tr, site.lane, obs::EventKind::MsgSend, site.step, dst,
                 m);
  }
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::PackEnd, site.step, packed);
}

void replay_rank(const spmd::CommSchedule& s, const ClausePlan& plan,
                 const RankSite& site, RankRows& rr,
                 const std::vector<double>* in, i64 in_stride,
                 std::vector<double>& out_row, const spmd::JitFns* jfns,
                 PathCounters& pc) {
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::GatherBegin, site.step);
  const spmd::ClauseKernel& kern = plan.kernel();
  const i64 p = site.p;
  const i64 procs = s.procs;
  const int nrefs = s.nrefs;
  const int nloops = s.nloops;
  const spmd::RecvPlan& rv = s.recv[static_cast<std::size_t>(p)];
  rr.refs.resize(static_cast<std::size_t>(nrefs));
  rr.stack.resize(static_cast<std::size_t>(kern.stack_need()));
  rr.cursor.resize(static_cast<std::size_t>(nloops + nrefs));
  const spmd::CompiledGuard* guard = kern.guard();
  const spmd::CompiledExpr& rhs = kern.rhs();
  double* refs = rr.refs.data();
  double* stack = rr.stack.data();
  double* out = out_row.data();

  // Operand bases in the schedule's id encoding (RecvPlan): ref rows,
  // then the packed buffer from each source rank (none when in is
  // null), then each ref's halo row.
  rr.bases.resize(static_cast<std::size_t>(s.bases()));
  for (int r = 0; r < nrefs; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    rr.bases[ur] = rr.rows[ur]->data();
    rr.bases[static_cast<std::size_t>(nrefs + procs) + ur] =
        rr.halo[ur] ? rr.halo[ur]->data() : nullptr;
  }
  for (i64 src = 0; src < procs; ++src)
    rr.bases[static_cast<std::size_t>(nrefs + src)] =
        in ? in[src * in_stride].data() : nullptr;
  const double* const* bases = rr.bases.data();

  // The segments in walk order. Jitted, runs go through the
  // vectorizable fused entry and element stretches (halo and packed
  // operands included) through the gather entry. A rank with a
  // guarded-out-of-range slot stays on bytecode, whose element loop
  // raises the tagged path's fault when the guard holds.
  const bool jit = jfns && !rv.oob_slot;
  for (const spmd::RecvSegment& sg : rv.segs) {
    if (sg.run) {
      const i64* vals0 = rv.run_vals.data() + sg.at * nloops;
      const i64* addr0 = rv.run_addr.data() + sg.at * 2 * nrefs;
      const i64* stride = addr0 + nrefs;
      if (jit) {
        jfns->fused(out, sg.la, sg.lstride, bases, addr0, stride, vals0,
                    sg.v0, sg.vstride, sg.n);
        continue;
      }
      // The loop tuple, then one offset cursor per ref.
      i64* vals = rr.cursor.data();
      i64* at = vals + nloops;
      std::copy_n(vals0, nloops, vals);
      std::copy_n(addr0, nrefs, at);
      i64 la = sg.la, v = sg.v0;
      const i64 lstride = sg.lstride, vstride = sg.vstride;
      for (i64 k = 0; k < sg.n; ++k, la += lstride, v += vstride) {
        vals[nloops - 1] = v;
        for (int r = 0; r < nrefs; ++r) {
          refs[r] = bases[r][at[r]];
          at[r] += stride[r];
        }
        if (guard && !guard->holds(refs, vals, stack)) continue;
        out[la] = rhs.eval(refs, vals, stack);
      }
      continue;
    }
    const i64* slots = rv.lhs_slot.data() + sg.at;
    const i64* vals = rv.vals.data() + sg.at * nloops;
    const i64* ids = rv.ids.data() + sg.at * nrefs;
    const i64* offs = rv.offs.data() + sg.at * nrefs;
    if (jit) {
      jfns->replay(out, bases, ids, offs, slots, vals, sg.n);
      continue;
    }
    for (i64 e = 0; e < sg.n; ++e, vals += nloops, ids += nrefs,
             offs += nrefs) {
      for (int r = 0; r < nrefs; ++r) refs[r] = bases[ids[r]][offs[r]];
      if (guard && !guard->holds(refs, vals, stack)) continue;
      const double value = rhs.eval(refs, vals, stack);
      if (slots[e] < 0)
        throw RuntimeFault("local write out of bounds on " +
                           plan.clause().lhs_array);
      out[slots[e]] = value;
    }
  }
  (jit ? pc.jit : pc.sched) += rv.n;
  VCAL_TRACE(site.tr, site.lane, obs::EventKind::GatherEnd, site.step, rv.n);
}

RankCounters scheduled_counters(const spmd::CommSchedule& s, i64 p,
                                const RankCounters& live) {
  RankCounters c = s.counters[static_cast<std::size_t>(p)];
  c.halo_bulk = live.halo_bulk;
  c.halo_values = live.halo_values;
  return c;
}

// ---- Redistribution -------------------------------------------------------

void redist_pack_rank(const decomp::ArrayDesc& from,
                      const decomp::ArrayDesc& to, const RankSite& site,
                      const std::vector<double>& old_row,
                      std::vector<double>& fresh, std::vector<double>* out,
                      RankCounters& rc, i64* matrix_row) {
  const i64 p = site.p;
  const i64 procs = from.procs();
  fresh.assign(static_cast<std::size_t>(to.local_capacity(p)), 0.0);
  for (i64 q = 0; q < procs; ++q) out[q].clear();
  i64 held = 0;
  for_each_move_run(from, to, p, [&](i64 q, i64 here, i64 there, i64 len) {
    if (here + len > static_cast<i64>(old_row.size()))
      throw RuntimeFault("local read out of bounds on " + from.name());
    const double* src = old_row.data() + here;
    held += len;
    if (q == p)
      std::copy_n(src, len, fresh.begin() + there);
    else
      out[q].insert(out[q].end(), src, src + len);
  });
  rc.iterations += held;
  for (i64 q = 0; q < procs; ++q) {
    const auto m = static_cast<i64>(out[q].size());
    if (q == p || m == 0) continue;
    rc.sends += m;
    ++rc.bulk_sends;
    matrix_row[q] += m;
    VCAL_TRACE(site.tr, site.lane, obs::EventKind::MsgSend, site.step, q, m);
  }
}

void redist_unpack_rank(const decomp::ArrayDesc& from,
                        const decomp::ArrayDesc& to, const RankSite& site,
                        const std::vector<double>* in, i64 in_stride,
                        std::vector<double>& fresh, RankCounters& rc) {
  const i64 p = site.p;
  const i64 procs = from.procs();
  std::vector<std::size_t> taken(static_cast<std::size_t>(procs), 0);
  for_each_move_run(to, from, p, [&](i64 src, i64 here, i64, i64 len) {
    if (src == p) return;  // copied by the pack side
    const std::vector<double>& buf = in[src * in_stride];
    std::size_t& at = taken[static_cast<std::size_t>(src)];
    require(at + static_cast<std::size_t>(len) <= buf.size(),
            "redistribution stream length mismatch");
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(at), len,
                fresh.begin() + here);
    at += static_cast<std::size_t>(len);
  });
  for (i64 src = 0; src < procs; ++src) {
    if (src == p) continue;
    const std::size_t m = taken[static_cast<std::size_t>(src)];
    require(m == in[src * in_stride].size(),
            "redistribution stream length mismatch");
    if (m == 0) continue;
    rc.receives += static_cast<i64>(m);
    ++rc.bulk_receives;
    VCAL_TRACE(site.tr, site.lane, obs::EventKind::MsgRecv, site.step, src,
               static_cast<i64>(m));
  }
}

i64 redist_moves(const decomp::ArrayDesc& from, const decomp::ArrayDesc& to) {
  i64 moves = 0;
  for (i64 p = 0; p < from.procs(); ++p)
    for_each_move_run(from, to, p, [&](i64 q, i64, i64, i64 len) {
      if (q != p) moves += len;
    });
  return moves;
}

}  // namespace vcal::rt
