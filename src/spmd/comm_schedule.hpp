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
// destination), and each destination rank satisfies every operand by
// offset — a local row slot, a halo row slot, or a (source rank,
// packed-buffer slot) pair — with zero tags, zero sorting, and zero
// hashing. Per-step receive cost drops from O(m log m) to O(m).
//
// The schedule also carries the step's per-rank RankCounters (all but
// the halo counters, which the live refresh supplies) and message-matrix
// increments: a scheduled step replays them verbatim, which is what
// keeps DistStats, last_step_counters(), message_matrix(), and sim_time
// bit-identical to the tagged path (the conformance oracle's `sched`
// axis pins this). Guards and right-hand sides are always evaluated
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
// schedule. A redistribute moves the clause to another entry, and a
// return to an earlier layout replays that layout's schedule at once.
// The tagged path runs only for an armed fault, with schedules off, or
// when the inspector refuses a clause whose elements fault.
//
// GatherSchedule is the shared-memory sibling, recorded on the shared
// machine's first clean kernel pass: the same source-offset lists turn
// each virtual processor's operand reads into a flat gather over
// dense-store offsets, skipping subscript evaluation and iteration-
// space enumeration on replay.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/schedule.hpp"
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

/// How one operand of one scheduled element is satisfied on replay.
struct RefOp {
  enum class Kind : std::uint8_t {
    Local,   // a = local row offset (replicated refs fold in here)
    Halo,    // a = slot in this rank's dense halo row of the ref's
             //     array (ArrayDesc::halo_slot)
    Remote,  // a = source rank, b = slot in the packed (a, dst) buffer
  };
  Kind kind = Kind::Local;
  std::int32_t ref = 0;
  i64 a = 0;
  i64 b = 0;
};

/// Per-source-rank pack program: ops[dst_begin[d] .. dst_begin[d+1])
/// packs the (src, d) buffer, in the order destination d reads the
/// values, so each Remote RefOp's slot is its position in the buffer.
struct SendPlan {
  std::vector<PackOp> ops;
  std::vector<i64> dst_begin;  // procs + 1 offsets into ops
};

/// Per-destination-rank executor program: for each of the n elements
/// this rank computes, the LHS local slot (-1 when the tagged path
/// would fault on an in-range-guarded write), the loop tuple, and one
/// RefOp per clause reference.
struct RecvPlan {
  i64 n = 0;
  std::vector<i64> lhs_slot;
  std::vector<i64> vals;  // n * nloops loop tuples, flattened
  std::vector<RefOp> ops; // n * nrefs operand fetches, flattened
};

/// The distributed machine's compiled schedule for one clause plan (one
/// clause at one layout of its arrays). Public data: the inspector
/// fills it (rank-partitioned, so its parallel walk notes without
/// locks) and the executor runs from it.
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
                        // consumed by exactly one Remote RefOp

  void init(i64 procs_, int nloops_, int nrefs_);

  // ---- inspector hooks (rank p touches recv[p] only) ----
  void note_element(i64 p, i64 slot, const i64* vals_) {
    RecvPlan& rv = recv[static_cast<std::size_t>(p)];
    ++rv.n;
    rv.lhs_slot.push_back(slot);
    for (int d = 0; d < nloops; ++d) rv.vals.push_back(vals_[d]);
  }
  void note_local(i64 p, int r, i64 offset) {
    recv[static_cast<std::size_t>(p)].ops.push_back(
        RefOp{RefOp::Kind::Local, r, offset, 0});
  }
  void note_halo(i64 p, int r, i64 slot) {
    recv[static_cast<std::size_t>(p)].ops.push_back(
        RefOp{RefOp::Kind::Halo, r, slot, 0});
  }
  void note_remote(i64 p, int r, i64 src, i64 slot) {
    recv[static_cast<std::size_t>(p)].ops.push_back(
        RefOp{RefOp::Kind::Remote, r, src, slot});
  }
};

/// Shared-memory sibling: per virtual processor, the flat list of
/// (dense LHS slot, loop tuple, dense operand offsets) its Modify_p
/// schedule enumerates — replay is a contiguous gather + live
/// guard/RHS evaluation, with the recorded enumeration statistics
/// replayed verbatim.
class GatherSchedule : public CachedSchedule {
 public:
  int nloops = 0;
  int nrefs = 0;
  struct RankGather {
    i64 n = 0;
    std::vector<i64> lhs_slot;  // dense slots; -1 = guarded OOB write
    std::vector<i64> vals;      // n * nloops
    std::vector<i64> offs;      // n * nrefs dense offsets
  };
  std::vector<RankGather> ranks;
  std::vector<gen::EnumStats> stats;  // per-rank enumeration deltas

  void init(i64 procs, int nloops_, int nrefs_);

  void note_element(i64 p, i64 slot, const i64* vals_) {
    RankGather& rg = ranks[static_cast<std::size_t>(p)];
    ++rg.n;
    rg.lhs_slot.push_back(slot);
    for (int d = 0; d < nloops; ++d) rg.vals.push_back(vals_[d]);
  }
  void note_off(i64 p, i64 off) {
    ranks[static_cast<std::size_t>(p)].offs.push_back(off);
  }
};

}  // namespace vcal::spmd
