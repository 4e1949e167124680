#include "obs/trace.hpp"

namespace vcal::obs {

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::ClauseBegin: return "clause-begin";
    case EventKind::ClauseEnd: return "clause-end";
    case EventKind::HaloBegin: return "halo-begin";
    case EventKind::HaloEnd: return "halo-end";
    case EventKind::RedistBegin: return "redist-begin";
    case EventKind::RedistEnd: return "redist-end";
    case EventKind::BarrierBegin: return "barrier-begin";
    case EventKind::BarrierEnd: return "barrier-end";
    case EventKind::Barrier: return "barrier";
    case EventKind::MsgSend: return "msg-send";
    case EventKind::MsgRecv: return "msg-recv";
    case EventKind::PlanHit: return "plan-hit";
    case EventKind::PlanMiss: return "plan-miss";
    case EventKind::RedistEpoch: return "redist-epoch";
    case EventKind::KernelPath: return "kernel-path";
    case EventKind::StepCounters: return "step-counters";
    case EventKind::PackBegin: return "pack-begin";
    case EventKind::PackEnd: return "pack-end";
    case EventKind::GatherBegin: return "gather-begin";
    case EventKind::GatherEnd: return "gather-end";
    case EventKind::SchedBuild: return "sched-build";
    case EventKind::SchedHit: return "sched-hit";
    case EventKind::JitBuild: return "jit-build";
    case EventKind::JitSwap: return "jit-swap";
    case EventKind::InspectBegin: return "inspect-begin";
    case EventKind::InspectEnd: return "inspect-end";
  }
  return "unknown";
}

bool is_begin(EventKind k) {
  switch (k) {
    case EventKind::ClauseBegin:
    case EventKind::HaloBegin:
    case EventKind::RedistBegin:
    case EventKind::BarrierBegin:
    case EventKind::PackBegin:
    case EventKind::GatherBegin:
    case EventKind::InspectBegin:
      return true;
    default:
      return false;
  }
}

EventKind end_of(EventKind k) {
  switch (k) {
    case EventKind::ClauseBegin: return EventKind::ClauseEnd;
    case EventKind::HaloBegin: return EventKind::HaloEnd;
    case EventKind::RedistBegin: return EventKind::RedistEnd;
    case EventKind::BarrierBegin: return EventKind::BarrierEnd;
    case EventKind::PackBegin: return EventKind::PackEnd;
    case EventKind::GatherBegin: return EventKind::GatherEnd;
    case EventKind::InspectBegin: return EventKind::InspectEnd;
    default: return k;
  }
}

RankTrace::RankTrace(i64 capacity)
    : ring_(static_cast<std::size_t>(capacity < 1 ? 1 : capacity)) {}

Tracer::Tracer(i64 ranks, i64 capacity_per_lane)
    : ranks_(ranks), epoch_(std::chrono::steady_clock::now()) {
  lanes_.reserve(static_cast<std::size_t>(ranks + 1));
  for (i64 i = 0; i <= ranks; ++i) lanes_.emplace_back(capacity_per_lane);
}

i64 Tracer::total_recorded() const noexcept {
  i64 n = 0;
  for (const auto& l : lanes_) n += l.recorded();
  return n;
}

i64 Tracer::total_dropped() const noexcept {
  i64 n = 0;
  for (const auto& l : lanes_) n += l.dropped();
  return n;
}

}  // namespace vcal::obs
