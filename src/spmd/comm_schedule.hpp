// Compiled communication schedules: the inspector–executor analogue of
// the paper's test→generator optimization, applied to the message layer.
//
// A clause's communication pattern — the set of (src, dst, ref, loop
// tuple) transfers — depends only on the layouts of the arrays it
// touches, never on array values; the paper derives it once from the
// data decomposition. A CommSchedule is that once-per-(clause, layout)
// *inspector* result, and it lets every step run a pure *executor*:
// each source rank packs values positionally into a contiguous reused
// buffer (PackOp list per destination), and each destination rank reads
// every operand as an offset into one of its operand bases — a local
// row, a halo row, or the packed buffer from one source rank (RecvPlan)
// — with no tags, no sorting and no hashing.
//
// The schedule also carries the step's per-rank RankCounters (all but
// the halo counters, which the live refresh supplies) and message-matrix
// increments: a step replays them verbatim, which is what keeps
// DistStats, last_step_counters(), message_matrix(), and sim_time
// independent of whether the step inspected or replayed (the
// conformance oracle checks every schedule against a per-element
// reference, verify/reference_schedule.hpp). Guards and right-hand sides
// are always evaluated live — only the *pattern* is compiled, never
// values.
//
// Lifecycle: schedules derive from a ClausePlan and ride in that plan's
// cache entry (spmd::CachedSchedule), which is keyed by the clause and
// the exact layouts of its arrays (plan_cache.hpp). The inspector
// (rt::Inspector, rt/rank_step.hpp) builds one receiver-side from the
// plan, its kernel and the descriptors' local capacities alone when an
// execution finds the entry without one, and that execution already
// runs it; a clause whose elements fault raises instead and stores
// nothing. Both distributed
// drivers use it: DistMachine inspects its ranks in parallel, and each
// proc worker inspects every rank, so all workers hold the same
// schedule. A rank's walk grows its own RecvPlan (one cache line per
// rank) and keeps everything else it writes per element — counters and
// the pack lists it reads from each source — in
// rank-local scratch until it ends; each pack list then moves whole
// into its source's SendPlan.
//
// The schedule is run-level: the paper's point is that a clause's
// communication follows from the decomposition in closed form, and a
// strided run (FusedRun, as rt::walk_modify finds them) is that form. A
// run the strided-run proof shows local is noted as one record — loop
// and slot progressions plus an offset start and stride per ref — so
// neither the walk nor the replay touches its elements one by one; only
// the elements outside such runs (halo, remote, guarded out-of-range,
// non-affine) are noted per element. A 1-D block overlap(1) stencil's
// rank holds one run and two element records. The replay runs the
// segments in walk order: runs through a strided loop (or the jitted
// vcal_jit_fused), element stretches through the per-element loop (or
// vcal_jit_replay). A redistribute moves the clause to
// another entry, and a return to an earlier layout replays that
// layout's schedule at once.
//
// The shared machine keeps its schedules in the same format: its first
// clean pass at a layout records one while it executes the step (every
// operand local, addressed in the dense image), and later steps replay
// it through the same executor with no packed buffers and no halo rows.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/cost_model.hpp"
#include "spmd/plan_cache.hpp"
#include "support/math.hpp"

namespace vcal::spmd {

/// One element of a packed (src, dst) bulk buffer: read reference
/// `ref`'s pre-clause local row on the source rank at `offset` and
/// append the value.
struct PackOp {
  std::int32_t ref = 0;
  i64 offset = 0;
};

/// Per-source-rank pack program: to[d] packs the (src, d) buffer, in the
/// order destination d reads the values, so each packed operand's
/// offset is its position in the buffer. Destination d's inspector
/// builds to[d] in its own walk and the list is moved here whole, never
/// copied.
struct SendPlan {
  std::vector<std::vector<PackOp>> to;  // per destination rank
};

/// One provably-resident stretch of an innermost run: n elements whose
/// loop value starts at v0 and advances by vstride, whose LHS slot
/// starts at la and advances by lstride, and whose ref r operand sits at
/// offset raddr[r], advancing by rstride[r] — slots and offsets in the
/// walk's addressing (rt::walk_modify hands these to its callers). raddr is the walker's per-run scratch: the callee
/// may advance it in place.
struct FusedRun {
  i64 v0 = 0;
  i64 vstride = 0;
  i64 n = 0;
  i64 la = 0;
  i64 lstride = 0;
  i64* raddr = nullptr;
  const i64* rstride = nullptr;
};

/// One piece of a rank's replay, in walk order: a strided run, or a
/// stretch of consecutive per-element records.
struct RecvSegment {
  i64 n = 0;         // elements
  i64 at = 0;        // a stretch: its first element record; a run: its
                     // row in RecvPlan::run_vals / run_addr
  bool run = false;
  // A run's element k writes LHS slot la + k*lstride with innermost
  // loop value v0 + k*vstride (the outer values fixed).
  i64 la = 0, lstride = 0;
  i64 v0 = 0, vstride = 0;
};

/// Per-destination-rank executor program: the elements this rank
/// computes, in walk order, as a list of segments (RecvSegment) of two
/// kinds.
///
/// A *run* is a stretch the strided-run proof shows local and in bounds
/// for the LHS and every ref: the clause's signature function in its
/// affine form. It stores its first loop tuple, its LHS slot and loop
/// value progressions, and one offset start and stride per ref, each
/// into ref r's own row.
///
/// A *stretch* holds per-element records: the LHS slot (-1 when the
/// write falls outside the rank's row, which faults only if the guard
/// holds on replay), the loop tuple and one operand per clause
/// reference as an (operand base, offset) pair. The bases of a schedule over R refs and P ranks are numbered
///   r            ref r's pre-clause row (replicated refs fold in here),
///   R + s        the packed buffer arriving from source rank s,
///   R + P + r    this rank's dense halo row of ref r's array (offset =
///                ArrayDesc::halo_slot),
/// so replay reads every record's operand as bases[id][off], jitted or
/// not, and the arrays are laid out as JitReplayFn takes them; a run
/// reads bases[r][start + k*stride], as JitFusedFn takes it.
///
/// Each rank's plan sits on its own cache line: the note_* hooks grow it
/// while the other ranks grow theirs.
struct alignas(64) RecvPlan {
  i64 n = 0;              // elements, the runs' included
  i64 runs = 0;
  bool oob_slot = false;  // some element record's LHS slot is -1
  std::vector<RecvSegment> segs;
  // Element records:
  std::vector<i64> lhs_slot;
  std::vector<i64> vals;  // records * nloops loop tuples, flattened
  std::vector<i64> ids;   // records * nrefs operand bases, flattened
  std::vector<i64> offs;  // records * nrefs offsets into those bases
  // Runs:
  std::vector<i64> run_vals;  // runs * nloops: each run's first tuple
  std::vector<i64> run_addr;  // runs * 2*nrefs: offset starts, then
                              // offset strides

  i64 records() const { return static_cast<i64>(lhs_slot.size()); }
};

/// The compiled schedule for one clause plan (one clause at one layout
/// of its arrays). Public data: the inspector or the shared machine's
/// recording pass fills it (rank-partitioned, so a parallel walk notes
/// without locks) and the executor runs from it.
class CommSchedule : public CachedSchedule {
 public:
  i64 procs = 0;
  int nloops = 0;
  int nrefs = 0;
  std::vector<SendPlan> send;              // per source rank
  std::vector<RecvPlan> recv;              // per destination rank
  std::vector<rt::RankCounters> counters;  // per-rank step counters bar
                                           // halo_bulk/halo_values,
                                           // replayed verbatim
  std::vector<i64> matrix_delta;           // procs*procs row-major
                                           // message-matrix increments
  i64 packed_ops = 0;   // PackOps = values packed per step, each
                        // read by exactly one packed-buffer operand

  void init(i64 procs_, int nloops_, int nrefs_);

  /// Operand bases one rank's replay indexes (see RecvPlan).
  i64 bases() const { return nrefs + procs + nrefs; }

  /// Runs shorter than this are noted element by element, joining the
  /// stretch around them: a call per run would cost more than the
  /// gather it replaces.
  static constexpr i64 kMinRun = 8;

  // ---- recording hooks (rank p touches recv[p] only) ----
  /// Sizes recv[p]'s element records for n elements (a walk that notes
  /// no runs).
  void reserve(i64 p, i64 n) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    rv.lhs_slot.reserve(static_cast<std::size_t>(n));
    rv.vals.reserve(static_cast<std::size_t>(n * nloops));
    rv.ids.reserve(static_cast<std::size_t>(n * nrefs));
    rv.offs.reserve(static_cast<std::size_t>(n * nrefs));
  }
  /// One element record; its operands follow through note_local,
  /// note_halo and note_remote.
  void note_element(i64 p, i64 slot, const i64* vals_) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    if (rv.segs.empty() || rv.segs.back().run) {
      RecvSegment sg;
      sg.at = rv.records();
      rv.segs.push_back(sg);
    }
    ++rv.segs.back().n;
    ++rv.n;
    if (slot < 0) rv.oob_slot = true;
    rv.lhs_slot.push_back(slot);
    for (int d = 0; d < nloops; ++d) rv.vals.push_back(vals_[d]);
  }
  void note_local(i64 p, int r, i64 offset) { note_op(p, r, offset); }
  void note_halo(i64 p, int r, i64 slot) { note_op(p, halo_base(r), slot); }
  void note_remote(i64 p, i64 src, i64 slot) {
    note_op(p, packed_base(src), slot);
  }
  /// Operand base ids (see RecvPlan): ref r's halo row, and the packed
  /// buffer from source rank src.
  i64 halo_base(int r) const { return nrefs + procs + r; }
  i64 packed_base(i64 src) const { return nrefs + src; }

  /// Where append's n element records go: n LHS slots, n loop tuples and
  /// n rows of nrefs operand (base, offset) pairs, for the caller to
  /// fill. A caller that writes a -1 slot sets recv[p].oob_slot.
  struct Records {
    i64* slot;
    i64* vals;
    i64* ids;
    i64* offs;
  };
  /// n element records at once, as n note_element calls and their
  /// operands would add them.
  Records append(i64 p, i64 n) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    if (rv.segs.empty() || rv.segs.back().run) {
      RecvSegment sg;
      sg.at = rv.records();
      rv.segs.push_back(sg);
    }
    rv.segs.back().n += n;
    rv.n += n;
    const auto e = static_cast<std::size_t>(rv.records());
    const auto m = e + static_cast<std::size_t>(n);
    const auto nl = static_cast<std::size_t>(nloops);
    const auto nr = static_cast<std::size_t>(nrefs);
    rv.lhs_slot.resize(m);
    rv.vals.resize(m * nl);
    rv.ids.resize(m * nr);
    rv.offs.resize(m * nr);
    return {rv.lhs_slot.data() + e, rv.vals.data() + e * nl,
            rv.ids.data() + e * nr, rv.offs.data() + e * nr};
  }
  /// A run whose every ref reads its own row, at the outer loop values
  /// of vals_ (f.raddr is left as it was). Sets vals_'s innermost value.
  void note_run(i64 p, i64* vals_, const FusedRun& f) {
    const int inner = nloops - 1;
    if (f.n < kMinRun) {
      for (i64 k = 0; k < f.n; ++k) {
        vals_[inner] = f.v0 + k * f.vstride;
        note_element(p, f.la + k * f.lstride, vals_);
        for (int r = 0; r < nrefs; ++r)
          note_local(p, r, f.raddr[r] + k * f.rstride[r]);
      }
      return;
    }
    vals_[inner] = f.v0;
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    RecvSegment sg;
    sg.n = f.n;
    sg.at = rv.runs++;
    sg.run = true;
    sg.la = f.la;
    sg.lstride = f.lstride;
    sg.v0 = f.v0;
    sg.vstride = f.vstride;
    rv.segs.push_back(sg);
    rv.n += f.n;
    rv.run_vals.insert(rv.run_vals.end(), vals_, vals_ + nloops);
    rv.run_addr.insert(rv.run_addr.end(), f.raddr, f.raddr + nrefs);
    rv.run_addr.insert(rv.run_addr.end(), f.rstride, f.rstride + nrefs);
  }

 private:
  void note_op(i64 p, i64 id, i64 off) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    rv.ids.push_back(id);
    rv.offs.push_back(off);
  }
};

}  // namespace vcal::spmd
