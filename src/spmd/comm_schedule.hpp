// Compiled communication schedules: the inspector–executor analogue of
// the paper's test→generator optimization, applied to the message layer.
//
// A clause's communication pattern — the set of (src, dst, ref, loop
// tuple) transfers — depends only on the layouts of the arrays it
// touches, never on array values; the paper derives it once from the
// data decomposition. The tagged execution path re-derives that pattern
// every step — a tag computation per element, a sort of every bulk
// channel, and a binary search (or hash probe) per remote operand. A
// CommSchedule is the once-per-(clause, layout) *inspector* result that
// lets every step run a pure *executor*: each source rank packs values
// positionally into a contiguous reused buffer (PackOp list per
// destination), and each destination rank reads every operand as an
// offset into one of its operand bases — a local row, a halo row, or
// the packed buffer from one source rank (RecvPlan) — with zero tags,
// zero sorting, and zero hashing. Per-step receive cost drops from O(m log m) to O(m).
//
// The schedule also carries the step's per-rank RankCounters (all but
// the halo counters, which the live refresh supplies) and message-matrix
// increments: a scheduled step replays them verbatim, which is what
// keeps DistStats, last_step_counters(), message_matrix(), and sim_time
// bit-identical to the tagged path (the conformance oracle's tagged
// reference run, rt::reorder_every_step's fault at every clause step,
// pins this). Guards and right-hand sides are always evaluated
// live — only the *pattern* is compiled, never values.
//
// Lifecycle: schedules derive from a ClausePlan and ride in that plan's
// cache entry (spmd::CachedSchedule), which is keyed by the clause and
// the exact layouts of its arrays (plan_cache.hpp). The inspector
// (rt::Inspector, rt/rank_step.hpp) builds one receiver-side from the
// plan, its kernel and the descriptors' local capacities alone when a
// clean execution finds the entry without one, and that execution
// already runs it; it never executes the tagged path. Both distributed
// drivers use it: DistMachine inspects its ranks in parallel, and each
// proc worker inspects every rank, so all workers hold the same
// schedule. A rank's walk grows its own RecvPlan (one cache line per
// rank) and keeps everything else it writes per element — counters,
// refusal flag, the pack lists it reads from each source — in
// rank-local scratch until it ends; each pack list then moves whole
// into its source's SendPlan. A redistribute moves the clause to
// another entry, and a return to an earlier layout replays that
// layout's schedule at once.
// The tagged path runs only for an armed fault (which is also how tests
// and the oracle reach it as a reference) or when the inspector refuses
// a clause whose elements fault.
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

/// Per-destination-rank executor program: for each of the n elements
/// this rank computes, the LHS slot (-1 when the tagged path would fault
/// on an in-range-guarded write), the loop tuple, and one operand per
/// clause reference as an (operand base, offset) pair. The bases of a
/// schedule over R refs and P ranks are numbered
///   r            ref r's pre-clause row (replicated refs fold in here),
///   R + s        the packed buffer arriving from source rank s,
///   R + P + r    this rank's dense halo row of ref r's array (offset =
///                ArrayDesc::halo_slot),
/// so replay reads every operand as bases[id][off], jitted or not, and
/// the arrays are laid out as JitReplayFn takes them. Each rank's plan
/// sits on its own cache line: the note_* hooks grow it once per
/// element while the other ranks grow theirs.
struct alignas(64) RecvPlan {
  i64 n = 0;
  std::vector<i64> lhs_slot;
  std::vector<i64> vals;  // n * nloops loop tuples, flattened
  std::vector<i64> ids;   // n * nrefs operand bases, flattened
  std::vector<i64> offs;  // n * nrefs offsets into those bases
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

  // ---- recording hooks (rank p touches recv[p] only) ----
  /// Sizes recv[p] for n elements.
  void reserve(i64 p, i64 n) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    rv.lhs_slot.reserve(static_cast<std::size_t>(n));
    rv.vals.reserve(static_cast<std::size_t>(n * nloops));
    rv.ids.reserve(static_cast<std::size_t>(n * nrefs));
    rv.offs.reserve(static_cast<std::size_t>(n * nrefs));
  }
  void note_element(i64 p, i64 slot, const i64* vals_) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    ++rv.n;
    rv.lhs_slot.push_back(slot);
    for (int d = 0; d < nloops; ++d) rv.vals.push_back(vals_[d]);
  }
  void note_local(i64 p, int r, i64 offset) { note_op(p, r, offset); }
  void note_halo(i64 p, int r, i64 slot) {
    note_op(p, nrefs + procs + r, slot);
  }
  void note_remote(i64 p, i64 src, i64 slot) {
    note_op(p, nrefs + src, slot);
  }

 private:
  void note_op(i64 p, i64 id, i64 off) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    rv.ids.push_back(id);
    rv.offs.push_back(off);
  }
};

}  // namespace vcal::spmd
