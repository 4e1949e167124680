#include "spmd/comm_schedule.hpp"

namespace vcal::spmd {

void CommSchedule::init(i64 procs_, int nloops_, int nrefs_) {
  procs = procs_;
  nloops = nloops_;
  nrefs = nrefs_;
  send.assign(static_cast<std::size_t>(procs), SendPlan{});
  for (SendPlan& sp : send) sp.to.resize(static_cast<std::size_t>(procs));
  recv.assign(static_cast<std::size_t>(procs), RecvPlan{});
  counters.assign(static_cast<std::size_t>(procs), rt::RankCounters{});
  matrix_delta.assign(static_cast<std::size_t>(procs * procs), 0);
}

}  // namespace vcal::spmd
