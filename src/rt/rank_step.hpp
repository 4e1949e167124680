// Rank-local phases of the distributed SPMD template (Sections 2.7 and
// 2.10 of the paper), shared by both distributed drivers. DistMachine
// runs them for every rank over its thread pool; the multi-process
// worker (src/proc/worker.cpp) runs them for its own rank. Each function
// does one rank's share of one phase over plain buffers — local rows,
// halo rows, channels and packed value buffers — and leaves moving those
// buffers between ranks to the driver: DistMachine's ranks share memory,
// so nothing moves, and the worker ships them over its rings.
//
// Per clause step, rank p runs
//   0. fill_halo_row for every overlapped array the clause reads, then
//   either the tagged path — reached only by a step with an armed fault
//   (rt/fault_plan.hpp; the tests' and the oracle's tagged reference
//   arms an outcome-neutral one at every step) or by a clause the
//   inspector refuses because an element would fault:
//   1. send_rank: enumerate Reside_p \ Modify_p into one sorted
//      (tag, value) channel per destination;
//   2. receive_update_rank: walk Modify_p, receiving remote operands by
//      tag, and update the local rows;
//   or the scheduled path (every other step), from the CommSchedule an
//   Inspector derives once per clause and layout:
//   1. pack_rank: pack values positionally, in SendPlan order;
//   2. replay_rank: run the rank's schedule segments — strided runs over
//      its own rows and per-element records that satisfy each operand by
//      offset — and evaluate the guard and RHS live.
// Both paths produce the same stores, counters and message matrix; the
// conformance oracle pins that.
//
// A redistribute step runs the mover: redist_pack_rank on every rank,
// then redist_unpack_rank, which walk the layouts' local runs
// (for_each_move_run) instead of every element.
//
// The shared-memory template is this one without the communication, so
// SharedMachine uses two of these pieces as well: walk_modify, over the
// dense image, for its recording pass, and replay_rank, with no packed
// buffers and no halo rows, for every later step.
//
// A phase that runs for several ranks at once keeps what it tallies per
// element (counters, path tallies, pack lists) rank-local and writes the
// driver's per-rank slot once, when it ends: neighbouring ranks' slots
// share cache lines.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "decomp/array_desc.hpp"
#include "obs/trace.hpp"
#include "rt/channel.hpp"
#include "rt/cost_model.hpp"
#include "rt/engine_options.hpp"
#include "rt/fault_plan.hpp"
#include "rt/store.hpp"
#include "spmd/clause_plan.hpp"
#include "spmd/comm_schedule.hpp"
#include "spmd/jit.hpp"
#include "spmd/kernel.hpp"

namespace vcal::rt {

/// Where a rank-local phase runs: rank p, the trace lane its events go
/// to (tr null: untraced), and the index of the step being executed.
struct RankSite {
  i64 p = 0;
  obs::Tracer* tr = nullptr;
  i64 lane = 0;
  i64 step = 0;
};

/// Rank p's operands for one clause step: ref r's pre-clause local row
/// (the copy-in snapshot when the clause reads its own target) and its
/// halo row (null without overlap), resolved by the driver once per
/// step, plus the replay loop's reusable scratch.
struct RankRows {
  std::vector<const std::vector<double>*> rows;
  std::vector<const std::vector<double>*> halo;
  std::vector<double> refs, stack;   // replay operand values, RHS stack
  std::vector<const double*> bases;  // replay operand bases (RecvPlan)
  std::vector<i64> cursor;  // a replayed run's loop tuple and offsets
};

// ---- Phase 0: halo refresh ----------------------------------------------

/// Calls chunk(owner, local, len) for every chunk of rank p's halo row
/// of the 1-D block array `rd`, in halo-slot order (left range, then
/// right): one chunk per owner block a range crosses, the unit one bulk
/// halo message carries. Halo ranges lie outside p's own block.
template <typename Chunk>
void for_each_halo_chunk(const decomp::ArrayDesc& rd, i64 p, Chunk&& chunk) {
  const decomp::Decomp1D& dim = rd.decomp().dim(0);
  const i64 base = rd.lo(0);
  for (int side : {-1, 1}) {
    auto [hlo, hhi] = rd.halo_range(p, side);
    for (i64 g = hlo; g <= hhi;) {
      const i64 local = dim.local(g - base);
      const i64 len = std::min(hhi - g + 1, dim.block_size() - local);
      chunk(dim.proc(g - base), local, len);
      g += len;
    }
  }
}

/// Reader side of phase 0: refills `row` with rank p's halo of `rd`,
/// copying each chunk from src(owner, local, len), which points at the
/// owner's len pre-clause values. Charges the reader's halo counters to
/// rc and each owner's to owner_bulk[owner] / owner_values[owner].
template <typename Src>
void fill_halo_row(const decomp::ArrayDesc& rd, i64 p,
                   std::vector<double>& row, RankCounters& rc,
                   i64* owner_bulk, i64* owner_values, Src&& src) {
  row.resize(static_cast<std::size_t>(rd.halo_capacity(p)));
  i64 slot = 0;
  for_each_halo_chunk(rd, p, [&](i64 owner, i64 local, i64 len) {
    std::copy_n(src(owner, local, len), len, row.begin() + slot);
    slot += len;
    ++owner_bulk[owner];
    owner_values[owner] += len;
    ++rc.halo_bulk;
    rc.halo_values += len;
  });
}

// ---- Modify_p walk ------------------------------------------------------

/// A stretch of one innermost run on which every access of the clause is
/// affine: n elements whose innermost loop value starts at the walk's
/// vals[inner] and advances by vstride, and whose access a (a = 0 the
/// LHS, 1 + r ref r) has program-level index g0[at[a] + d] in dimension
/// d, advancing by dg[at[a] + d] per element. A 1-element stretch has
/// zero strides.
struct Stretch {
  i64 n = 0;
  i64 vstride = 0;
  const i64* g0 = nullptr;
  const i64* dg = nullptr;
  const i64* at = nullptr;
};

/// Walks rank p's Modify_p space in order, innermost run by innermost
/// run. When every subscript is Constant, Affine or AffineMod
/// (ClauseKernel::piecewise), each run reaches the consumer in pieces:
///   - an affine kernel hands the maximal subrange the strided-run proof
///     shows in bounds (and, in rank p's local rows, resident on p) for
///     the LHS and every ref to `fused` in one call, and the elements
///     before and after it (the whole run, when nothing can be proven)
///     to `stretch`;
///   - a kernel with AffineMod subscripts hands the run to `stretch`,
///     split wherever some (a*i + c) mod z wraps (ModSub::piece), so
///     every access is affine along each stretch.
/// A clause with a Monotone or Opaque subscript goes to `element` one
/// element at a time. `dense` selects the addressing of fused runs
/// (spmd::ArrayAddr): the dense row-major image on the shared machine,
/// rank p's local rows otherwise. The tagged phase 2, the inspector and
/// the shared machine share this walk, so all see the same element
/// order and split.
template <typename Element, typename OnStretch, typename Fused>
void walk_modify(const spmd::ClausePlan& plan, i64 p, bool dense,
                 gen::EnumStats* es, Element&& element, OnStretch&& stretch,
                 Fused&& fused) {
  const spmd::ClauseKernel& kern = plan.kernel();
  const spmd::IterationSpace& space = plan.modify_space(p);
  const int inner = space.dims() - 1;
  const auto ui = static_cast<std::size_t>(inner);
  if (!kern.piecewise()) {
    space.for_each_run(
        [&](std::vector<i64>& vals, const gen::Piece& run) {
          for (i64 k = 0; k < run.count; ++k) {
            vals[ui] = run.start + k * run.stride;
            element(vals);
          }
        },
        es);
    return;
  }

  // Each access's index progression along the current run, one slot per
  // dimension (access a's from at[a]): base0 + k*basedg for the affine
  // dimensions and for mod dimensions on outer loops; mod dimensions on
  // the innermost loop are placed per piece. Sized at the first run, so
  // an empty Modify_p allocates nothing.
  const int n = static_cast<int>(plan.clause().refs.size());
  auto subs = [&](int a) -> const spmd::SubRecords& {
    return a == 0 ? kern.lhs_subs() : kern.ref_subs(a - 1);
  };
  struct InnerMod {
    std::size_t slot;
    const spmd::ModSub* m;
    i64 du;     // pre-mod step per element (saturated: it only sizes
                // pieces, and |du| >= z already gives 1-element ones)
    i64 value;  // the current piece's first value
  };
  std::vector<i64> prog;  // at, then base0, basedg, g0 and dg
  std::vector<InnerMod> mods;
  std::size_t dims = 0;
  i64 *at = nullptr, *base0 = nullptr, *basedg = nullptr, *g0 = nullptr,
      *dg = nullptr;
  auto progressions = [&](const std::vector<i64>& vals,
                          const gen::Piece& run) {
    if (prog.empty()) {
      std::size_t nmods = 0;
      for (int a = 0; a <= n; ++a) {
        dims += subs(a).affine.size();
        nmods += subs(a).mod.size();
      }
      prog.resize(static_cast<std::size_t>(n + 2) + 4 * dims);
      at = prog.data();
      for (int a = 0; a <= n; ++a)
        at[a + 1] = at[a] + static_cast<i64>(subs(a).affine.size());
      base0 = at + n + 2;
      basedg = base0 + dims;
      g0 = basedg + dims;
      dg = g0 + dims;
      if (!kern.affine()) mods.reserve(nmods);
    }
    mods.clear();
    for (int a = 0; a <= n; ++a) {
      const spmd::SubRecords& sr = subs(a);
      const auto a0 = static_cast<std::size_t>(at[a]);
      spmd::fill_progression(sr.affine, vals, inner, run, base0 + a0,
                             basedg + a0);
      for (const spmd::ModSub& m : sr.mod) {
        if (m.loop != inner) {
          base0[a0 + m.dim] = m.at(vals.data());
          continue;
        }
        i64 du;
        if (__builtin_mul_overflow(m.a, run.stride, &du))
          du = (m.a < 0) != (run.stride < 0) ? -INT64_MAX : INT64_MAX;
        mods.push_back({a0 + m.dim, &m, du, 0});
      }
    }
  };
  // Hands elements [k0, k1) of `run` to `stretch`, one piece at a time.
  auto pieces = [&](std::vector<i64>& vals, const gen::Piece& run, i64 k0,
                    i64 k1) {
    for (i64 k = k0; k < k1;) {
      const i64 v = run.start + k * run.stride;
      i64 len = k1 - k;
      for (InnerMod& im : mods) {
        const spmd::ModSub::Piece pc =
            im.m->piece(im.m->a * v + im.m->c, im.du, len);
        im.value = pc.value;
        len = pc.len;
      }
      const bool moves = len > 1;
      for (std::size_t t = 0; t < dims; ++t) {
        g0[t] = base0[t] + k * basedg[t];
        dg[t] = moves ? basedg[t] : 0;
      }
      for (const InnerMod& im : mods) {
        g0[im.slot] = im.value;
        dg[im.slot] = moves ? im.du : 0;
      }
      vals[ui] = v;
      stretch(vals, Stretch{len, moves ? run.stride : 0, g0, dg, at});
      k += len;
    }
  };
  if (!kern.affine()) {
    space.for_each_run(
        [&](std::vector<i64>& vals, const gen::Piece& run) {
          progressions(vals, run);
          pieces(vals, run, 0, run.count);
        },
        es);
    return;
  }

  using spmd::FusedRun;
  auto addr = [&](const decomp::ArrayDesc& d) {
    return dense ? spmd::make_dense_addr(d) : spmd::make_local_addr(d, p);
  };
  std::vector<spmd::ArrayAddr> addrs;
  addrs.reserve(static_cast<std::size_t>(n + 1));
  addrs.push_back(addr(plan.lhs_desc()));
  for (int r = 0; r < n; ++r) addrs.push_back(addr(plan.ref_desc(r)));
  std::vector<spmd::StridedRun> runs(static_cast<std::size_t>(n + 1));
  std::vector<i64> raddr(static_cast<std::size_t>(n)),
      rstride(static_cast<std::size_t>(n));
  space.for_each_run(
      [&](std::vector<i64>& vals, const gen::Piece& run) {
        progressions(vals, run);
        i64 k0 = 0, k1 = run.count - 1;
        bool fuse = true;
        for (int a = 0; fuse && a <= n; ++a) {
          const auto ua = static_cast<std::size_t>(a);
          const auto a0 = static_cast<std::size_t>(at[a]);
          fuse = spmd::strided_run(addrs[ua], base0 + a0, basedg + a0,
                                   run.count, &runs[ua]);
          k0 = std::max(k0, runs[ua].k_lo);
          k1 = std::min(k1, runs[ua].k_hi);
        }
        if (!fuse || k0 > k1) {
          pieces(vals, run, 0, run.count);
          return;
        }
        pieces(vals, run, 0, k0);
        const spmd::StridedRun& lrun = runs[0];
        FusedRun f;
        f.v0 = run.start + k0 * run.stride;
        f.vstride = run.stride;
        f.n = k1 - k0 + 1;
        f.la = lrun.addr0 + (k0 - lrun.k_lo) * lrun.stride;
        f.lstride = lrun.stride;
        for (std::size_t r = 0; r < raddr.size(); ++r) {
          const spmd::StridedRun& rrun = runs[r + 1];
          raddr[r] = rrun.addr0 + (k0 - rrun.k_lo) * rrun.stride;
          rstride[r] = rrun.stride;
        }
        f.raddr = raddr.data();
        f.rstride = rstride.data();
        fused(vals, f);
        pieces(vals, run, k1 + 1, run.count);
      },
      es);
}

/// walk_modify for a consumer that takes every element one at a time
/// (the tagged phase 2): each stretch expands back into its elements,
/// in walk order.
template <typename Element, typename Fused>
void walk_modify_elements(const spmd::ClausePlan& plan, i64 p, bool dense,
                          gen::EnumStats* es, Element&& element,
                          Fused&& fused) {
  const auto inner = static_cast<std::size_t>(plan.modify_space(p).dims() - 1);
  walk_modify(
      plan, p, dense, es, element,
      [&](std::vector<i64>& vals, const Stretch& s) {
        const i64 v0 = vals[inner];
        for (i64 k = 0; k < s.n; ++k) {
          vals[inner] = v0 + k * s.vstride;
          element(vals);
        }
      },
      fused);
}

// ---- Tagged path ----------------------------------------------------------

/// Phase 1 on site.p: routes every operand in Reside_p that another
/// rank's update reads (and that rank's halo does not cover) into
/// out[dst], this rank's row of procs channels, then packs each
/// non-empty channel as one bulk message.
void send_rank(const spmd::ClausePlan& plan, const RankSite& site,
               const RankRows& rr, Channel* out, RankCounters& rc,
               PathCounters& pc, i64* matrix_row);

/// Applies one armed message fault to the packed channel it names;
/// returns whether the channel changed.
bool perturb(Channel& ch, const FaultPlan& f);

/// Receiver-side bulk accounting for site.p, whose channel from src is
/// in[src * in_stride]: run after faults, since a drop can empty one.
void count_received(const Channel* in, i64 in_stride, i64 procs,
                    const RankSite& site, RankCounters& rc);

/// Phase 2 on site.p: walks Modify_p, reading local operands from the
/// rows, halo operands from the halo rows and remote ones by tag from
/// in[src * in_stride], and writes the updates into out_row. Runs
/// bytecode only: a step comes here with an armed fault (JIT off) or to
/// raise an element's fault.
void receive_update_rank(const spmd::ClausePlan& plan, const RankSite& site,
                         const RankRows& rr, std::vector<double>& out_row,
                         Channel* in, i64 in_stride, RankCounters& rc,
                         PathCounters& pc);

/// The message-pairing invariant: throws when rank p finished a clause
/// with messages it never consumed.
void check_delivered(i64 p, const Channel* in, i64 in_stride, i64 procs);

// ---- Scheduled path -------------------------------------------------------

/// Inspector half of the inspector–executor split: derives a clause's
/// whole-machine communication schedule receiver-side from its plan and
/// the descriptors' local capacities alone — the paper's point that
/// Reside_p \ Modify_p follows from the data decomposition. A driver
/// calls rank(site) for every rank (distinct ranks may run
/// concurrently), then finish().
class Inspector {
 public:
  explicit Inspector(const spmd::ClausePlan& plan);

  ~Inspector();

  /// Walks rank site.p's Modify_p inside an inspect span on site.lane.
  /// Each FusedRun the walk hands it becomes one run of the rank's
  /// RecvPlan, without visiting its elements; every other element
  /// becomes a record whose operands resolve as local, halo or remote,
  /// a Stretch at a time where the clause allows (stepped by cursors,
  /// without dividing). The walk's counters, refusal flag and pack
  /// lists stay in rank-local scratch and are published once, when it
  /// ends. The span's End carries the elements, element records, runs
  /// and elements resolved through stretches.
  void rank(const RankSite& site);

  /// The schedule, or null when some element would fault (the tagged
  /// path then raises the error).
  std::unique_ptr<spmd::CommSchedule> finish();

 private:
  class Locators;  // the accesses' addressing and every rank's cursors

  const spmd::ClausePlan& plan_;
  std::unique_ptr<spmd::CommSchedule> sched_;
  std::vector<char> refused_;
  std::vector<i64> row_len_;  // [r * procs + q]: ref r's row on rank q
  std::unique_ptr<Locators> locs_;
};

/// Executor phase 1 on site.p: packs the values its SendPlan lists into
/// out[dst], this rank's row of procs reused buffers.
void pack_rank(const spmd::CommSchedule& s, const RankSite& site,
               const RankRows& rr, std::vector<double>* out);

/// Executor phase 2 on site.p: runs rank p's RecvPlan segments in walk
/// order — a run by offset progressions into the ref rows, an element
/// record by (base, offset) into a local row, a halo row, or the buffer
/// from src at in[src * in_stride] (in null: no packed buffers) — and
/// evaluates the guard and RHS live into out_row. With jfns non-null the
/// segments go through the jitted entries (runs vcal_jit_fused, element
/// stretches vcal_jit_replay) unless the rank holds a guarded
/// out-of-range slot.
void replay_rank(const spmd::CommSchedule& s, const spmd::ClausePlan& plan,
                 const RankSite& site, RankRows& rr,
                 const std::vector<double>* in, i64 in_stride,
                 std::vector<double>& out_row, const spmd::JitFns* jfns,
                 PathCounters& pc);

/// Rank p's counters for a scheduled step: the schedule's, with the halo
/// counters the live refresh charged to `live`.
RankCounters scheduled_counters(const spmd::CommSchedule& s, i64 p,
                                const RankCounters& live);

// ---- Redistribution -------------------------------------------------------

/// Calls seg(q, here, there, len) for every stretch of rank p's elements
/// under layout `from`, in ascending dense order, that one rank q holds
/// at consecutive local slots under layout `to`: len elements at local
/// slots here.. on p under `from` and there.. on q under `to`. The
/// stretches are for_each_local_block's runs split at `to`'s block edges
/// in the innermost dimension; each costs one division pair
/// (Decomp1D::locate), not one per element. The redistribution mover's
/// two sides walk the same element set in the same order through it, so
/// every (src, dst) stream needs no index.
template <typename Seg>
void for_each_move_run(const decomp::ArrayDesc& from,
                       const decomp::ArrayDesc& to, i64 p, Seg&& seg) {
  const decomp::DecompND& tn = to.decomp();
  const int inner = tn.ndims() - 1;
  const decomp::Decomp1D& tdim = tn.dim(inner);
  const i64 b = tdim.block_size();
  for_each_local_block(
      from, p, [&](i64 here, const std::vector<i64>& g, i64 len) {
        // The row's outer coordinates fix a prefix of the owner's grid
        // rank and of its row-major local address.
        decomp::Location row;
        for (int d = 0; d < inner; ++d) {
          const decomp::Decomp1D& dim = tn.dim(d);
          const decomp::Location l =
              dim.locate(g[static_cast<std::size_t>(d)]);
          row.owner = row.owner * dim.procs() + l.owner;
          row.local = row.local * dim.local_capacity(l.owner) + l.local;
        }
        for (i64 k = 0; k < len;) {
          const i64 gi = g[static_cast<std::size_t>(inner)] + k;
          const decomp::Location l = tdim.locate(gi);
          const i64 n = std::min(len - k, b - gi % b);
          seg(row.owner * tdim.procs() + l.owner, here + k,
              row.local * tdim.local_capacity(l.owner) + l.local, n);
          k += n;
        }
      });
}

/// Redistribution, sender side on site.p: sizes `fresh` to p's row under
/// `to`, copies every stretch that stays on p from old_row straight into
/// it, and appends every other stretch to out[q], this rank's row of
/// procs reused buffers — so each (p, q) stream is in ascending dense
/// order. Charges p's iterations (one per element it holds under
/// `from`), sends, bulk sends and message-matrix row.
void redist_pack_rank(const decomp::ArrayDesc& from,
                      const decomp::ArrayDesc& to, const RankSite& site,
                      const std::vector<double>& old_row,
                      std::vector<double>& fresh, std::vector<double>* out,
                      RankCounters& rc, i64* matrix_row);

/// Redistribution, receiver side on site.p, after every sender packed:
/// walks p's elements under `to` in ascending dense order and fills each
/// stretch held by another rank src under `from` from the front of
/// in[src * in_stride]. Charges p's receives and bulk receives; a stream
/// whose length disagrees with the walk is an internal error.
void redist_unpack_rank(const decomp::ArrayDesc& from,
                        const decomp::ArrayDesc& to, const RankSite& site,
                        const std::vector<double>* in, i64 in_stride,
                        std::vector<double>& fresh, RankCounters& rc);

/// The elements whose owner differs between `from` and `to`: a
/// redistribution's message count.
i64 redist_moves(const decomp::ArrayDesc& from, const decomp::ArrayDesc& to);

}  // namespace vcal::rt
