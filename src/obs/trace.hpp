// Per-rank event tracing: the always-available observability layer.
//
// The runtime's end-of-run counters (DistStats / SharedStats) say *how
// much* happened; they cannot say *where the time went* or whether
// rt::CostModel's predictions track reality. A Tracer answers both: it
// holds one fixed-capacity ring buffer of typed events per rank, plus
// one "engine" control lane for machine-level events (plan-cache
// probes, redistributions, whole-step spans).
//
// Recording is lock-free by construction rather than by atomics: lane r
// is written only by whichever thread is currently executing rank r
// (the machines already partition all per-rank state this way, with a
// pool join between phases), and the control lane is written only by
// the orchestrating thread between parallel sections. One record() is a
// bounded number of plain stores into preallocated storage — no
// allocation, no locks, no formatting (tests/obs_test.cpp pins the
// steady-state allocation count at zero).
//
// Every event carries dual timestamps: wall-clock nanoseconds from one
// steady clock shared by all lanes, and the machine's cost-model
// virtual time (sim_time) snapshotted at the most recent step boundary.
// Regressing one against the other is exactly what obs/calibrate.hpp
// does to fit latency/bandwidth constants.
//
// Tracing must never perturb execution: machines hold a Tracer only
// when EngineOptions::trace is set, every hook is one branch on a null
// pointer, and the conformance oracle runs its whole engine matrix with
// tracing on and off asserting bit-identical stores, statistics, and
// message matrices. Compiling with -DVCAL_OBS_DISABLED removes even the
// null-pointer branch from every VCAL_TRACE site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "support/math.hpp"

namespace vcal::obs {

enum class EventKind : std::uint8_t {
  // Paired spans (Begin must be matched by its End on the same lane).
  ClauseBegin,   // a clause step: per-rank update phase, or the whole
                 // step on the control lane
  ClauseEnd,
  HaloBegin,     // distributed phase 0 (halo refresh) on a rank
  HaloEnd,
  RedistBegin,   // a redistribution step (control lane)
  RedistEnd,
  BarrierBegin,  // pool join around a parallel phase (control lane);
                 // a0 = phase ordinal
  BarrierEnd,
  // Instants.
  Barrier,       // shared-memory barrier accounting: a0 = 1 performed,
                 // 0 elided by the footnote-1 analysis
  MsgSend,       // a packed bulk message left this rank: a0 = dst rank,
                 // a1 = elements carried
  MsgRecv,       // a bulk message arrived at this rank: a0 = src rank,
                 // a1 = elements carried
  PlanHit,       // plan-cache probe (control lane): a0 = cache size
  PlanMiss,      // a0 = cache size, a1 = compiled-kernel op count
  RedistEpoch,   // an array changed layout: a0 = its new layout id
  KernelPath,    // per-rank per-step path tally: a0 = fused,
                 // a1 = generic, a2 = interp, a3 = schedule-replayed
                 // elements
  StepCounters,  // per-step totals (control lane, calibration input):
                 // a0 = iterations, a1 = tests, a2 = element transfers,
                 // a3 = bulk messages
  // Communication-schedule (inspector–executor) events. The span pairs
  // keep the Begin = End - 1 adjacency the exporters rely on.
  PackBegin,      // rank lane: positional pack of outgoing schedule
  PackEnd,        //   buffers (replay phase 1); End a0 = values packed
  GatherBegin,    // rank lane: schedule-driven operand gather + compute
  GatherEnd,      //   (replay phase 2); End a0 = elements produced
  SchedBuild,     // control lane: inspector compiled a schedule
                  //   (a0 = schedules cached)
  SchedHit,       // control lane: step replayed through a schedule
  JitBuild,       // control lane: a clause plan armed native compilation
                  //   (a0 = 1 synchronous, 0 background worker)
  JitSwap,        // control lane: jitted function pointers swapped into
                  //   the clause dispatch (a0 = 1 fresh build, 0 reused
                  //   from the content-addressed cache)
  InspectBegin,   // rank lane: the inspector's walk of one rank's
  InspectEnd,     //   Modify_p on a first execution at a layout; End
                  //   a0 = elements noted, a1 = element records,
                  //   a2 = strided runs, a3 = elements resolved
                  //   through stretches
};

constexpr int kEventKindCount = static_cast<int>(EventKind::InspectEnd) + 1;

/// Stable lower-case name, e.g. "clause-begin", "msg-send".
const char* kind_name(EventKind k);

/// True for *Begin kinds; end_of maps a Begin kind to its End.
bool is_begin(EventKind k);
EventKind end_of(EventKind k);

struct TraceEvent {
  EventKind kind = EventKind::ClauseBegin;
  std::int32_t step = -1;  // program step ordinal, -1 when not tied to one
  i64 wall_ns = 0;         // steady-clock ns since the tracer's epoch
  double virt = 0.0;       // cost-model time at the last step boundary
  i64 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
};

/// One lane's ring buffer. Single writer; capacity is fixed at
/// construction and recording never allocates. When full, the oldest
/// event is overwritten and counted as dropped.
class RankTrace {
 public:
  explicit RankTrace(i64 capacity);

  void record(const TraceEvent& e) noexcept {
    ring_[head_] = e;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++recorded_;
  }

  i64 capacity() const noexcept { return static_cast<i64>(ring_.size()); }
  i64 recorded() const noexcept { return recorded_; }
  i64 size() const noexcept {
    return recorded_ < capacity() ? recorded_ : capacity();
  }
  i64 dropped() const noexcept { return recorded_ - size(); }

  /// Visits retained events oldest to newest.
  template <typename F>
  void for_each(F&& fn) const {
    const i64 n = size();
    std::size_t start =
        recorded_ <= capacity()
            ? 0
            : head_;  // head_ is the oldest slot once wrapped
    for (i64 k = 0; k < n; ++k) {
      std::size_t i = start + static_cast<std::size_t>(k);
      if (i >= ring_.size()) i -= ring_.size();
      fn(ring_[i]);
    }
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write slot
  i64 recorded_ = 0;      // total ever recorded, including overwritten
};

class Tracer {
 public:
  /// One lane per rank plus a trailing control ("engine") lane.
  explicit Tracer(i64 ranks, i64 capacity_per_lane = 1 << 14);

  i64 ranks() const noexcept { return ranks_; }
  i64 lanes() const noexcept { return static_cast<i64>(lanes_.size()); }
  i64 control_lane() const noexcept { return ranks_; }

  /// Nanoseconds since this tracer was constructed.
  i64 now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Machines publish their cost-model clock here at step boundaries
  /// (between parallel sections, so lane writers read it race-free).
  void set_virtual_time(double t) noexcept { virt_ = t; }
  double virtual_time() const noexcept { return virt_; }

  void record(i64 lane, EventKind kind, i64 step, i64 a0 = 0, i64 a1 = 0,
              i64 a2 = 0, i64 a3 = 0) noexcept {
    TraceEvent e;
    e.kind = kind;
    e.step = static_cast<std::int32_t>(step);
    e.wall_ns = now_ns();
    e.virt = virt_;
    e.a0 = a0;
    e.a1 = a1;
    e.a2 = a2;
    e.a3 = a3;
    lanes_[static_cast<std::size_t>(lane)].record(e);
  }

  const RankTrace& lane(i64 i) const {
    return lanes_[static_cast<std::size_t>(i)];
  }

  i64 total_recorded() const noexcept;
  i64 total_dropped() const noexcept;

 private:
  i64 ranks_;
  std::chrono::steady_clock::time_point epoch_;
  double virt_ = 0.0;
  std::vector<RankTrace> lanes_;
};

}  // namespace vcal::obs

// Hook macro for the machines' hot paths: one branch on a null sink
// when tracing is off, nothing at all under -DVCAL_OBS_DISABLED.
#if defined(VCAL_OBS_DISABLED)
#define VCAL_TRACE(tracer, ...) ((void)0)
#else
#define VCAL_TRACE(tracer, ...)            \
  do {                                     \
    if (tracer) (tracer)->record(__VA_ARGS__); \
  } while (0)
#endif
