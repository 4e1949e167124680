#include "rt/fault_plan.hpp"

#include "spmd/program.hpp"
#include "support/format.hpp"

namespace vcal::rt {

std::string FaultPlan::str() const {
  switch (kind) {
    case Kind::None:
      return "none";
    case Kind::DropMessage:
      return cat("drop step=", step, " channel=", src, "->", dst,
                 " index=", index);
    case Kind::DuplicateMessage:
      return cat("duplicate step=", step, " channel=", src, "->", dst,
                 " index=", index);
    case Kind::ReorderChannel:
      return cat("reorder step=", step, " channel=", src, "->", dst);
    case Kind::StallRank:
      return cat("stall step=", step, " rank=", rank,
                 " rounds=", rounds);
  }
  return "?";
}

std::vector<FaultPlan> reorder_every_step(const spmd::Program& program) {
  std::vector<FaultPlan> faults;
  for (std::size_t k = 0; k < program.steps.size(); ++k) {
    if (!std::holds_alternative<prog::Clause>(program.steps[k])) continue;
    FaultPlan f;
    f.kind = FaultPlan::Kind::ReorderChannel;
    f.step = static_cast<i64>(k);
    f.src = program.procs > 1 ? 1 : 0;
    f.dst = 0;
    faults.push_back(f);
  }
  return faults;
}

}  // namespace vcal::rt
