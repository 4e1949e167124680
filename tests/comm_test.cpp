// Tests for compiled communication schedules (src/spmd/comm_schedule):
// the inspector/executor split on both machines, one schedule per layout
// across redistributions, fault-forced fallback to the tagged path, and
// the replay accounting surfaced through CommStats.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/shared_machine.hpp"

namespace vcal::rt {
namespace {

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.25 + 1.0;
  return v;
}

// A communicating clause (block LHS vs scatter RHS: all-to-all traffic)
// repeated `reps` times, optionally with a redistribution in the middle.
std::string repeat_src(int reps, bool redistribute_middle = false) {
  std::string s =
      "processors 4;\n"
      "array A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n";
  for (int k = 0; k < reps; ++k) {
    if (redistribute_middle && k == reps / 2)
      s += "redistribute B block;\n";
    s += "forall i in 0:30 do A[i] := B[(i + 5) mod 32] + 1; od\n";
  }
  return s;
}

struct DistRun {
  std::vector<double> a;
  DistStats stats;
  std::vector<std::vector<i64>> matrix;
  CommStats comm;
  PathCounters paths;
};

DistRun run_dist(const std::string& src, EngineOptions e,
                 const FaultPlan* fault = nullptr) {
  spmd::Program program = lang::compile(src);
  DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  if (fault) m.inject(*fault);
  m.run();
  return {m.gather("A"), m.stats(), m.message_matrix(), m.comm_stats(),
          m.path_counters()};
}

void expect_same_observables(const DistRun& x, const DistRun& y) {
  EXPECT_EQ(x.a, y.a);
  EXPECT_EQ(x.matrix, y.matrix);
  EXPECT_EQ(x.stats.messages, y.stats.messages);
  EXPECT_EQ(x.stats.bulk_messages, y.stats.bulk_messages);
  EXPECT_EQ(x.stats.local_reads, y.stats.local_reads);
  EXPECT_EQ(x.stats.remote_reads, y.stats.remote_reads);
  EXPECT_EQ(x.stats.iterations, y.stats.iterations);
  EXPECT_EQ(x.stats.tests, y.stats.tests);
  EXPECT_EQ(x.stats.steps, y.stats.steps);
  EXPECT_EQ(x.stats.sim_time, y.stats.sim_time);
}

TEST(CommSchedule, ReplayIsBitIdenticalToTaggedPath) {
  for (int threads : {1, 4}) {
    EngineOptions on;
    on.threads = threads;
    EngineOptions off = on;
    off.comm_schedules = false;
    DistRun r_on = run_dist(repeat_src(6), on);
    DistRun r_off = run_dist(repeat_src(6), off);
    expect_same_observables(r_on, r_off);
    EXPECT_EQ(r_on.comm.sched_builds, 1) << threads;
    EXPECT_EQ(r_on.comm.sched_hits, 5) << threads;
    EXPECT_EQ(r_off.comm.sched_builds, 0) << threads;
    EXPECT_EQ(r_off.comm.sched_hits, 0) << threads;
    // Every packed value is consumed exactly once by a recorded slot.
    EXPECT_GT(r_on.comm.packed_values, 0);
    EXPECT_EQ(r_on.comm.packed_values, r_on.comm.unpacked_values);
    EXPECT_EQ(r_on.comm.packed_bytes,
              r_on.comm.packed_values * static_cast<i64>(sizeof(double)));
    // Replayed elements land in the sched path-counter column (or jit,
    // when the background-compiled module swapped in mid-run).
    EXPECT_GT(r_on.paths.sched + r_on.paths.jit, 0);
    EXPECT_EQ(r_off.paths.sched, 0);
  }
}

TEST(CommSchedule, ScheduleReuseCounts) {
  // T executions of one clause: the first runs tagged and records,
  // every later one replays.
  const int kReps = 9;
  DistRun r = run_dist(repeat_src(kReps), {});
  EXPECT_EQ(r.comm.sched_builds, 1);
  EXPECT_EQ(r.comm.sched_hits, kReps - 1);
  EXPECT_EQ(r.comm.sched_fallbacks, 0);
}

TEST(CommSchedule, EachLayoutRecordsItsOwnSchedule) {
  spmd::Program program = lang::compile(repeat_src(6, /*redist=*/true));
  DistMachine m(program, {}, {}, {});
  m.load("B", ramp(32));
  m.run();
  // Three executions on each side of the redistribution: the new layout
  // records a schedule of its own (plan and slot offsets bake the layout
  // in), and the old layout's schedule stays for a return to it.
  EXPECT_EQ(m.comm_stats().sched_builds, 2);
  EXPECT_EQ(m.comm_stats().sched_hits, 4);
  EXPECT_EQ(m.plan_cache().schedules(), 2);

  // And the perturbed run still matches the schedule-free one.
  EngineOptions off;
  off.comm_schedules = false;
  DistRun r_off = run_dist(repeat_src(6, true), off);
  EXPECT_EQ(m.gather("A"), r_off.a);
  EXPECT_EQ(m.stats().messages, r_off.stats.messages);
  EXPECT_EQ(m.message_matrix(), r_off.matrix);
}

TEST(CommSchedule, ArmedFaultForcesTaggedFallback) {
  // Find a busy channel at the replayed step first.
  DistRun probe = run_dist(repeat_src(4), {});
  i64 fsrc = -1, fdst = -1;
  for (i64 s = 0; s < 4 && fsrc < 0; ++s)
    for (i64 d = 0; d < 4 && fsrc < 0; ++d)
      if (probe.matrix[static_cast<std::size_t>(s)]
                      [static_cast<std::size_t>(d)] > 4) {
        fsrc = s;
        fdst = d;
      }
  ASSERT_GE(fsrc, 0);

  // A benign perturbation (reorder) on a step that would otherwise
  // replay: the step must fall back to the real tagged channels, absorb
  // the fault, and leave every observable bit-identical.
  FaultPlan f;
  f.kind = FaultPlan::Kind::ReorderChannel;
  f.step = 2;
  f.src = fsrc;
  f.dst = fdst;
  DistRun faulted = run_dist(repeat_src(4), {}, &f);
  expect_same_observables(probe, faulted);
  EXPECT_EQ(faulted.comm.sched_fallbacks, 1);
  EXPECT_EQ(faulted.comm.sched_builds, 1);
  EXPECT_EQ(faulted.comm.sched_hits, 2);  // steps 1 and 3 replay

  // A stalled rank takes the same fallback route.
  FaultPlan stall;
  stall.kind = FaultPlan::Kind::StallRank;
  stall.step = 2;
  stall.rank = 1;
  stall.rounds = 2;
  DistRun stalled = run_dist(repeat_src(4), {}, &stall);
  expect_same_observables(probe, stalled);
  EXPECT_EQ(stalled.comm.sched_fallbacks, 1);
}

TEST(CommSchedule, NonAffineClausesRecordAndReplayThroughTheKernel) {
  // The rotate read is affine-mod: the tagged pass runs the kernel's
  // mod records and the replays its bytecode RHS — no tree walk on
  // either side of the inspector/executor split.
  DistRun r = run_dist(repeat_src(6), {});
  EXPECT_EQ(r.comm.sched_builds, 1);
  EXPECT_EQ(r.comm.sched_hits, 5);
  EXPECT_EQ(r.paths.interp, 0);
  EXPECT_GT(r.paths.generic, 0);
  EXPECT_GT(r.paths.sched, 0);
}

TEST(CommSchedule, SharedGatherReplayMatchesEnumeration) {
  spmd::Program program = lang::compile(repeat_src(6, /*redist=*/true));
  auto run_shared = [&](bool sched) {
    EngineOptions e;
    e.threads = 1;
    e.comm_schedules = sched;
    SharedMachine m(program, {}, {}, /*elide_barriers=*/false, e);
    m.load("B", ramp(32));
    m.run();
    return std::make_tuple(m.result("A"), m.stats(), m.comm_stats(),
                           m.path_counters());
  };
  auto [a_on, st_on, c_on, p_on] = run_shared(true);
  auto [a_off, st_off, c_off, p_off] = run_shared(false);
  EXPECT_EQ(a_on, a_off);
  EXPECT_EQ(st_on.barriers, st_off.barriers);
  EXPECT_EQ(st_on.iterations, st_off.iterations);
  EXPECT_EQ(st_on.tests, st_off.tests);
  EXPECT_EQ(st_on.sim_time, st_off.sim_time);
  // Same build/replay cadence as the distributed machine: record on the
  // first clean pass on each side of the redistribution.
  EXPECT_EQ(c_on.sched_builds, 2);
  EXPECT_EQ(c_on.sched_hits, 4);
  EXPECT_EQ(c_off.sched_builds, 0);
  EXPECT_EQ(c_off.sched_hits, 0);
  EXPECT_GT(p_on.sched + p_on.jit, 0);
  EXPECT_EQ(p_off.sched, 0);
}

TEST(CommSchedule, ReturningLayoutReplaysItsSchedule) {
  // One mod-rotate clause across block -> scatter -> block: two
  // executions, one, two. Each layout records on its first execution;
  // back on block the first schedule replays, so 2 builds and 3 hits on
  // both machines, from 2 plan builds. The result matches the
  // schedule-free run.
  const std::string rot =
      "forall i in 0:30 do A[i] := B[(i + 5) mod 32] + 1; od\n";
  const std::string src =
      "processors 4;\n"
      "array A[0:31];\ndistribute A scatter;\n"
      "array B[0:31];\ndistribute B block;\n" +
      rot + rot + "redistribute B scatter;\n" + rot +
      "redistribute B block;\n" + rot + rot;
  spmd::Program program = lang::compile(src);
  for (bool sched : {true, false}) {
    EngineOptions e;
    e.comm_schedules = sched;
    DistMachine d(program, {}, {}, e);
    d.load("B", ramp(32));
    d.run();
    SharedMachine s(program, {}, {}, /*elide_barriers=*/false, e);
    s.load("B", ramp(32));
    s.run();
    EXPECT_EQ(d.gather("A"), s.result("A"));
    EXPECT_EQ(d.comm_stats().sched_builds, sched ? 2 : 0);
    EXPECT_EQ(d.comm_stats().sched_hits, sched ? 3 : 0);
    EXPECT_EQ(s.comm_stats().sched_builds, sched ? 2 : 0);
    EXPECT_EQ(s.comm_stats().sched_hits, sched ? 3 : 0);
    EXPECT_EQ(d.plan_cache().misses(), 2);
    EXPECT_EQ(d.plan_cache().hits(), 3);
    EXPECT_EQ(s.plan_cache().misses(), 2);
    if (sched) {
      EngineOptions off;
      off.comm_schedules = false;
      DistRun r_off = run_dist(src, off);
      EXPECT_EQ(d.gather("A"), r_off.a);
      EXPECT_EQ(d.stats().messages, r_off.stats.messages);
      EXPECT_EQ(d.stats().sim_time, r_off.stats.sim_time);
      EXPECT_EQ(d.message_matrix(), r_off.matrix);
    }
  }
}

}  // namespace
}  // namespace vcal::rt
