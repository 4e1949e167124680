// Fault injection for the distributed machine's virtual network.
//
// The simulator's execution template is deadlock-free by construction,
// so the deadlock detector and the message-conservation checks are
// ordinarily unreachable code. A FaultPlan perturbs one chosen step so
// tests can prove those guards actually fire — and fire with an
// actionable diagnostic — or that the engine absorbs the perturbation
// with bit-identical results:
//
//   DropMessage       remove one packed element from the (src, dst)
//                     channel; the receiver's blocking receive must
//                     raise DeadlockError naming the blocked rank and
//                     the pending element.
//   DuplicateMessage  re-deliver one element; the pairing invariant
//                     must report it as undelivered at the step's end.
//   ReorderChannel    reverse the (src, dst) channel's delivery order;
//                     receives match by tag, so results and counters
//                     must not change.
//   StallRank         hold one rank out of the receive/update phase for
//                     `rounds` scheduler rounds; sends are already in
//                     flight, so once released the results and message
//                     totals must equal the unfaulted run.
//
// Faults target a step by index (clause steps only; redistributions move
// data through a different path and ignore message faults). A fault
// naming an empty channel is a no-op; DistMachine::faults_applied()
// reports how many injections actually perturbed something so tests can
// assert the fault landed.
//
// An armed fault is one of the two ways a clause step reaches the tagged
// path (rt/rank_step.hpp); the other is a clause the inspector refuses
// because an element would fault. Tests and the conformance oracle take
// the first way on purpose, through reorder_every_step below, to get a
// tagged reference run. Every other step runs a communication schedule.
#pragma once

#include <string>
#include <vector>

#include "support/math.hpp"

namespace vcal::spmd {
struct Program;
}  // namespace vcal::spmd

namespace vcal::rt {

struct FaultPlan {
  enum class Kind {
    None,
    DropMessage,
    DuplicateMessage,
    ReorderChannel,
    StallRank,
  };

  Kind kind = Kind::None;
  i64 step = 0;   // 0-based index into the program's steps
  i64 src = 0;    // channel source rank (message faults)
  i64 dst = 0;    // channel destination rank (message faults)
  i64 index = 0;  // which packed message in the channel (taken mod size)
  i64 rank = 0;   // the rank to stall (StallRank)
  i64 rounds = 1; // scheduler rounds the stalled rank sits out

  std::string str() const;
};

/// The tagged reference: one ReorderChannel fault (channel 1 -> 0, or
/// 0 -> 0 on one rank) at every clause step of `program`. Injected into
/// a DistMachine or ProcMachine it forces every clause step down the
/// tagged path — an armed fault never inspects or replays a schedule —
/// while leaving results, counters and the message matrix unchanged.
std::vector<FaultPlan> reorder_every_step(const spmd::Program& program);

}  // namespace vcal::rt
