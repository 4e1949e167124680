// An independent reference for the inspector's communication schedules.
//
// rt::Inspector derives a clause's CommSchedule from its plan with fused
// runs, piecewise-affine stretches and stepped cursors. The reference
// builds the same schedule the slow, obvious way: it walks every rank's
// Modify_p element by element (IterationSpace::for_each), evaluates each
// subscript through ClauseKernel::subs_into, resolves each operand
// through ArrayDesc::locate and checks it against the descriptor's local
// capacity, and notes every element as a record. schedule_diff compares
// the two after expanding the inspector's runs into the records they
// stand for, so a schedule must agree record for record — operand bases
// and offsets, pack lists, counters, message-matrix increments and
// packed volume — with the per-element derivation of Modify_p and
// Reside_p from the decomposition.
#pragma once

#include <memory>
#include <string>

#include "spmd/clause_plan.hpp"
#include "spmd/comm_schedule.hpp"

namespace vcal::verify {

/// The schedule of `plan` derived element by element; null when some
/// element would fault (an access outside its array, an operand outside
/// its row, or a subscript that faults as it evaluates).
std::unique_ptr<spmd::CommSchedule> reference_schedule(
    const spmd::ClausePlan& plan);

/// Empty when `got` and `want` describe the same step — the same
/// per-element records in walk order once each schedule's runs are
/// expanded, the same pack lists, counters, message-matrix increments
/// and packed volume; otherwise the first difference found.
std::string schedule_diff(const spmd::CommSchedule& got,
                          const spmd::CommSchedule& want);

}  // namespace vcal::verify
