// Dynamic redistribution: moving an array from one decomposition to
// another at run time.
//
// The paper's introduction singles out dynamic decompositions (run-time
// redistribution) as the feature earlier systems lacked or intermingled
// with user code; its Section 5 lists them as the research direction the
// calculus enables. Because both layouts are views with closed-form
// proc()/local() maps, the redistribution plan falls out mechanically:
// every element whose owner changes contributes exactly one message.
//
// This per-element plan is the reference implementation: the machines
// move data with the rank-local mover in rt/rank_step.hpp, which walks
// runs of local slots instead of every index, and tests check that
// mover against plan_redistribution on every pair of layout kinds.
#pragma once

#include <string>
#include <vector>

#include "decomp/array_desc.hpp"

namespace vcal::decomp {

/// One element move: source rank/local slot to destination rank/local
/// slot. Element identity is the dense row-major linearization.
struct Move {
  i64 src_rank;
  i64 src_local;
  i64 dst_rank;
  i64 dst_local;
  i64 dense_index;
};

struct RedistPlan {
  std::vector<Move> moves;       // elements that change owner
  i64 stationary = 0;            // elements whose owner is unchanged
  std::vector<i64> sends_by_rank;    // messages leaving each rank
  std::vector<i64> receives_by_rank; // messages arriving at each rank
  i64 total_messages() const {
    return static_cast<i64>(moves.size());
  }
  std::string summary() const;
};

/// Builds the redistribution plan from `from` to `to`. The two
/// descriptors must describe the same index space on the same number of
/// processors (names may differ). Neither may be replicated.
RedistPlan plan_redistribution(const ArrayDesc& from, const ArrayDesc& to);

}  // namespace vcal::decomp
