// Tests for compiled communication schedules (src/spmd/comm_schedule):
// the inspector/executor split on both machines, one schedule per layout
// across redistributions, fault-forced fallback to the tagged path, the
// replay accounting surfaced through CommStats, the dist inspector's
// step-for-step agreement with the tagged path, and the run-level
// schedule format (strided runs plus per-element records). The tagged
// reference is
// a run with an outcome-neutral fault at every clause step
// (rt::reorder_every_step).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/rank_step.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "spmd/jit.hpp"
#include "verify/program_gen.hpp"

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
                 const std::vector<FaultPlan>& faults = {}) {
  spmd::Program program = lang::compile(src);
  DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  for (const FaultPlan& f : faults) m.inject(f);
  m.run();
  return {m.gather("A"), m.stats(), m.message_matrix(), m.comm_stats(),
          m.path_counters()};
}

// The same run with every clause step forced down the tagged path.
DistRun run_tagged(const std::string& src, EngineOptions e) {
  return run_dist(src, e, reorder_every_step(lang::compile(src)));
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
    DistRun r_on = run_dist(repeat_src(6), on);
    DistRun r_off = run_tagged(repeat_src(6), on);
    expect_same_observables(r_on, r_off);
    EXPECT_EQ(r_on.comm.sched_builds, 1) << threads;
    EXPECT_EQ(r_on.comm.sched_hits, 5) << threads;
    EXPECT_EQ(r_off.comm.sched_builds, 0) << threads;
    EXPECT_EQ(r_off.comm.sched_hits, 0) << threads;
    EXPECT_EQ(r_off.comm.sched_fallbacks, 6) << threads;
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
  // T executions of one clause: the first is inspected (a build), every
  // later one replays the stored schedule (a hit).
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

  // And the run still matches the tagged reference.
  DistRun r_off = run_tagged(repeat_src(6, true), {});
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
  DistRun faulted = run_dist(repeat_src(4), {}, {f});
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
  DistRun stalled = run_dist(repeat_src(4), {}, {stall});
  expect_same_observables(probe, stalled);
  EXPECT_EQ(stalled.comm.sched_fallbacks, 1);
}

TEST(CommSchedule, NonAffineClausesInspectAndReplayThroughTheKernel) {
  // The rotate read is affine-mod: the inspector resolves the kernel's
  // mod records and every execution — the inspected first one included
  // — runs the schedule with the bytecode RHS. No element takes the
  // per-element tagged path and none is tree-walked.
  DistRun r = run_dist(repeat_src(6), {});
  EXPECT_EQ(r.comm.sched_builds, 1);
  EXPECT_EQ(r.comm.sched_hits, 5);
  EXPECT_EQ(r.paths.interp, 0);
  EXPECT_EQ(r.paths.generic, 0);
  EXPECT_EQ(r.paths.fused, 0);
  EXPECT_EQ(r.paths.sched, 6 * 31);  // six executions over i in 0:30
}

TEST(CommSchedule, SharedGatherReplayMatchesEnumeration) {
  spmd::Program program = lang::compile(repeat_src(6, /*redist=*/true));
  auto run_shared = [&](std::size_t steps) {
    spmd::Program prefix = program;
    prefix.steps.resize(steps);
    EngineOptions e;
    e.threads = 1;
    SharedMachine m(prefix, {}, {}, /*elide_barriers=*/false, e);
    m.load("B", ramp(32));
    m.run();
    return std::make_tuple(m.result("A"), m.stats(), m.comm_stats(),
                           m.path_counters());
  };
  const std::size_t nsteps = program.steps.size();
  auto [a, stats, comm, paths] = run_shared(nsteps);
  SeqExecutor seq(program, /*reference=*/true);
  seq.load("B", ramp(32));
  seq.run();
  EXPECT_EQ(a, seq.result("A"));
  // Same build/replay cadence as the distributed machine: record on the
  // first clean pass on each side of the redistribution.
  EXPECT_EQ(comm.sched_builds, 2);
  EXPECT_EQ(comm.sched_hits, 4);
  EXPECT_GT(paths.sched + paths.jit, 0);

  // A replay charges what the recording walk at its layout charged:
  // steps 0-2 and 4-6 (step 3 is the redistribution) each add the
  // iterations and tests of the first execution on their side.
  std::vector<SharedStats> after;
  for (std::size_t k = 0; k < nsteps; ++k)
    after.push_back(std::get<1>(run_shared(k)));
  after.push_back(stats);
  for (std::size_t first : {std::size_t{0}, std::size_t{4}})
    for (std::size_t k = first + 1; k < first + 3; ++k) {
      EXPECT_EQ(after[k + 1].iterations - after[k].iterations,
                after[first + 1].iterations - after[first].iterations)
          << "step " << k;
      EXPECT_EQ(after[k + 1].tests - after[k].tests,
                after[first + 1].tests - after[first].tests)
          << "step " << k;
    }
}

TEST(CommSchedule, ReturningLayoutReplaysItsSchedule) {
  // One mod-rotate clause across block -> scatter -> block: two
  // executions, one, two. Each layout records on its first execution;
  // back on block the first schedule replays, so 2 builds and 3 hits on
  // both machines, from 2 plan builds. The result matches the tagged
  // reference.
  const std::string rot =
      "forall i in 0:30 do A[i] := B[(i + 5) mod 32] + 1; od\n";
  const std::string src =
      "processors 4;\n"
      "array A[0:31];\ndistribute A scatter;\n"
      "array B[0:31];\ndistribute B block;\n" +
      rot + rot + "redistribute B scatter;\n" + rot +
      "redistribute B block;\n" + rot + rot;
  spmd::Program program = lang::compile(src);
  DistMachine d(program, {}, {}, {});
  d.load("B", ramp(32));
  d.run();
  SharedMachine s(program, {}, {}, /*elide_barriers=*/false, {});
  s.load("B", ramp(32));
  s.run();
  EXPECT_EQ(d.gather("A"), s.result("A"));
  EXPECT_EQ(d.comm_stats().sched_builds, 2);
  EXPECT_EQ(d.comm_stats().sched_hits, 3);
  EXPECT_EQ(s.comm_stats().sched_builds, 2);
  EXPECT_EQ(s.comm_stats().sched_hits, 3);
  EXPECT_EQ(d.plan_cache().misses(), 2);
  EXPECT_EQ(d.plan_cache().hits(), 3);
  EXPECT_EQ(s.plan_cache().misses(), 2);

  DistRun tagged = run_tagged(src, {});
  EXPECT_EQ(d.gather("A"), tagged.a);
  EXPECT_EQ(d.stats().messages, tagged.stats.messages);
  EXPECT_EQ(d.stats().sim_time, tagged.stats.sim_time);
  EXPECT_EQ(d.message_matrix(), tagged.matrix);
  EXPECT_EQ(tagged.comm.sched_builds + tagged.comm.sched_hits, 0);
}

// The dist inspector derives each step's counters and message-matrix
// increments without executing the tagged path; every step of a
// generated corpus must count exactly what the tagged step counts.
// Programs run prefix by prefix so each step's last_step_counters() and
// cumulative message_matrix() are compared right after that step.
TEST(CommSchedule, InspectedStepsMatchTheTaggedPathOnAGeneratedCorpus) {
  struct Outcome {
    std::vector<RankCounters> counters;
    std::vector<std::vector<i64>> matrix;
    std::string error;
  };
  auto run_prefix = [](const spmd::Program& program, std::size_t steps,
                       bool tagged) {
    spmd::Program prefix = program;
    prefix.steps.resize(steps);
    EngineOptions e;
    e.threads = 1;
    e.jit = false;
    DistMachine m(prefix, {}, {}, e);
    if (tagged)
      for (const FaultPlan& f : reorder_every_step(prefix)) m.inject(f);
    for (const auto& [name, desc] : prefix.arrays) {
      std::vector<double> v(static_cast<std::size_t>(desc.total()));
      for (std::size_t k = 0; k < v.size(); ++k)
        v[k] = static_cast<double>(k % 7) * 1.5 - 2.0;
      m.load(name, v);
    }
    Outcome o;
    try {
      m.run();
    } catch (const Error& err) {
      o.error = err.what();
    }
    o.counters = m.last_step_counters();
    o.matrix = m.message_matrix();
    return o;
  };
  auto same = [](const RankCounters& a, const RankCounters& b) {
    return a.sends == b.sends && a.receives == b.receives &&
           a.iterations == b.iterations && a.tests == b.tests &&
           a.local_reads == b.local_reads &&
           a.remote_reads == b.remote_reads &&
           a.bulk_sends == b.bulk_sends &&
           a.bulk_receives == b.bulk_receives &&
           a.halo_bulk == b.halo_bulk && a.halo_values == b.halo_values &&
           a.halo_reads == b.halo_reads;
  };

  i64 replicated_lhs = 0, halo_refs = 0, guarded = 0, two_d = 0,
      redists = 0, inspected = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    verify::GeneratedProgram gp = verify::ProgramGen(seed).next();
    const std::string src = gp.source();
    SCOPED_TRACE(cat("seed ", seed, ":\n", src));
    spmd::Program program = lang::compile(src);
    spmd::ArrayTable layout = program.arrays;
    for (std::size_t k = 0; k < program.steps.size(); ++k) {
      if (const auto* rs = std::get_if<spmd::RedistStep>(&program.steps[k])) {
        layout.insert_or_assign(rs->array, rs->new_desc);
        ++redists;
      } else {
        const prog::Clause& c = std::get<prog::Clause>(program.steps[k]);
        replicated_lhs += layout.at(c.lhs_array).is_replicated() ? 1 : 0;
        for (const prog::ArrayRef& r : c.refs)
          halo_refs += layout.at(r.array).halo() > 0 ? 1 : 0;
        guarded += c.guard ? 1 : 0;
        two_d += c.loops.size() == 2 ? 1 : 0;
        ++inspected;
      }
      const Outcome on = run_prefix(program, k + 1, false);
      const Outcome off = run_prefix(program, k + 1, true);
      ASSERT_EQ(on.error, off.error) << "step " << k;
      if (!on.error.empty()) break;  // later prefixes fault the same way
      ASSERT_EQ(on.counters.size(), off.counters.size()) << "step " << k;
      for (std::size_t p = 0; p < on.counters.size(); ++p)
        EXPECT_TRUE(same(on.counters[p], off.counters[p]))
            << "step " << k << " rank " << p;
      EXPECT_EQ(on.matrix, off.matrix) << "step " << k;
    }
  }
  // The corpus reaches every shape the inspector distinguishes.
  EXPECT_GT(replicated_lhs, 0);
  EXPECT_GT(halo_refs, 0);
  EXPECT_GT(guarded, 0);
  EXPECT_GT(two_d, 0);
  EXPECT_GT(redists, 0);
  EXPECT_GT(inspected, 100);
}

TEST(CommSchedule, FaultingClausesFaultAlikeAndStoreNoSchedule) {
  // The inspector refuses a clause with a faulting element, so the
  // tagged path raises exactly the tagged reference's error and no
  // schedule is stored. B[i - 1] reads outside B at i = 0; C is replicated, so
  // C[i mod (i - 11)] is first evaluated by the executors (not by plan
  // construction) and divides by zero at i = 11. With both, rank 0's
  // out-of-bounds read is the error the tagged path raises, though the
  // division faults on rank 1. B[(i + 20) mod 40 - 8] stays inside B
  // until its mod piece wraps at i = 20 (to B[-8]), so only the second
  // stretch of rank 2's run leaves the array. The shared machine raises
  // the same text.
  const struct {
    const char* rhs;
    const char* error;
  } cases[] = {
      {"B[i - 1]", "read out of bounds on B"},
      {"C[i mod (i - 11)]", "'mod' by zero in a subscript"},
      {"B[i - 1] + C[i mod (i - 11)]", "read out of bounds on B"},
      {"B[(i + 20) mod 40 - 8]", "read out of bounds on B"},
  };
  for (const auto& c : cases) {
    spmd::Program program = lang::compile(cat(
        "processors 4;\narray A[0:31];\ndistribute A block;\n"
        "array B[0:31];\ndistribute B scatter;\n"
        "array C[0:31];\ndistribute C replicated;\n"
        "forall i in 0:31 do A[i] := ",
        c.rhs, "; od\n"));
    for (int threads : {1, 4})
      for (bool tagged : {false, true}) {
        EngineOptions e;
        e.threads = threads;
        DistMachine m(program, {}, {}, e);
        m.load("B", ramp(32));
        m.load("C", ramp(32));
        if (tagged)
          for (const FaultPlan& f : reorder_every_step(program)) m.inject(f);
        try {
          m.run();
          ADD_FAILURE() << c.rhs << ": no fault, tagged " << tagged;
        } catch (const RuntimeFault& f) {
          EXPECT_STREQ(f.what(), c.error)
              << c.rhs << ", threads " << threads << ", tagged " << tagged;
        }
        EXPECT_EQ(m.plan_cache().schedules(), 0) << c.rhs;
        EXPECT_EQ(m.comm_stats().sched_builds, 0) << c.rhs;
        EXPECT_EQ(m.comm_stats().sched_hits, 0) << c.rhs;
        SharedMachine sh(program, {}, {}, /*elide_barriers=*/false, e);
        sh.load("B", ramp(32));
        sh.load("C", ramp(32));
        try {
          sh.run();
          ADD_FAILURE() << c.rhs << ": no fault on shared";
        } catch (const RuntimeFault& f) {
          EXPECT_STREQ(f.what(), c.error)
              << c.rhs << " on shared, threads " << threads;
        }
        EXPECT_EQ(sh.comm_stats().sched_builds, 0) << c.rhs;
      }
  }
}

// The schedule the inspector derives for clause step `k` of `program` at
// its declared layouts.
std::unique_ptr<spmd::CommSchedule> inspect(const spmd::Program& program,
                                            std::size_t k,
                                            spmd::PlanCache& cache) {
  const spmd::ClausePlan& plan =
      cache.get(std::get<prog::Clause>(program.steps[k]), program.arrays);
  Inspector inspector(plan);
  for (i64 p = 0; p < plan.procs(); ++p) inspector.rank(RankSite{p});
  return inspector.finish();
}

std::string counters_str(const RankCounters& c) {
  return cat(c.sends, ",", c.receives, ",", c.iterations, ",", c.tests, ",",
             c.local_reads, ",", c.remote_reads, ",", c.bulk_sends, ",",
             c.bulk_receives, ",", c.halo_bulk, ",", c.halo_values, ",",
             c.halo_reads);
}

i64 run_elements(const spmd::RecvPlan& rv) {
  i64 n = 0;
  for (const spmd::RecvSegment& sg : rv.segs) n += sg.run ? sg.n : 0;
  return n;
}

TEST(CommSchedule, OverlapStencilSchedulesAreRunLevel) {
  // A 1-D block overlap(1) stencil: each rank's first and last element
  // read a halo operand, everything between is one strided run. The
  // schedule holds those (at most two) records and runs covering the
  // rest, whatever the extent.
  for (i64 n : {i64{1024}, i64{65536}}) {
    spmd::Program program = lang::compile(cat(
        "processors 4;\narray U[0:", n - 1, "];\narray V[0:", n - 1,
        "];\ndistribute U block overlap(1);\n"
        "distribute V block overlap(1);\n"
        "forall i in 1:", n - 2, " do V[i] := (U[i-1] + U[i+1])/2; od\n"));
    spmd::PlanCache cache;
    std::unique_ptr<spmd::CommSchedule> s = inspect(program, 0, cache);
    ASSERT_TRUE(s) << n;
    i64 total = 0;
    for (i64 p = 0; p < 4; ++p) {
      const spmd::RecvPlan& rv = s->recv[static_cast<std::size_t>(p)];
      EXPECT_LE(rv.records(), 2) << n << " rank " << p;
      EXPECT_GE(rv.runs, 1) << n << " rank " << p;
      EXPECT_FALSE(rv.oob_slot);
      EXPECT_EQ(run_elements(rv) + rv.records(), rv.n) << n << " rank " << p;
      total += rv.n;
    }
    EXPECT_EQ(total, n - 2);
    EXPECT_EQ(s->packed_ops, 0);
  }
}

// A 1-D clause and a 2-D clause, each guarded, each mixing strided runs
// with halo or remote element records, and a transposed read whose runs
// stride by a row; all read their loop variables.
const char* kMixedSrc =
    "processors 4;\n"
    "array A[0:255];\ndistribute A block overlap(1);\n"
    "array B[0:255];\ndistribute B block overlap(1);\n"
    "array C[0:255];\ndistribute C block;\n"
    "array M[0:63, 0:15];\ndistribute M (block, *);\n"
    "array N[0:63, 0:15];\ndistribute N (block, *);\n"
    "array T[0:15, 0:15];\ndistribute T (block, *);\n"
    "forall i in 1:246 | B[i] > 3 do A[i] := (B[i-1] + B[i+1])/2 + C[i+8] "
    "+ i; od\n"
    "forall i in 0:55, j in 0:14 | N[i, j] > 2 do "
    "M[i, j] := N[i, j+1] - N[i+8, j]*3 + i*j; od\n"
    "forall i in 0:15, j in 0:15 do T[i, j] := N[j, i] + j; od\n";

TEST(CommSchedule, MixedSchedulesReplayLikeTheTaggedPath) {
  std::string src = kMixedSrc;
  const std::string clauses = src.substr(src.find("forall"));
  for (int k = 0; k < 2; ++k) src += clauses;  // replays of both clauses
  spmd::Program program = lang::compile(src);

  // Every clause mixes the segment kinds: runs, and records reading
  // halo rows (base id >= R + P) or packed buffers (R <= id < R + P).
  spmd::PlanCache cache;
  for (std::size_t k = 0; k < 3; ++k) {
    std::unique_ptr<spmd::CommSchedule> s = inspect(program, k, cache);
    ASSERT_TRUE(s);
    const i64 R = s->nrefs, P = s->procs;
    i64 runs = 0, halo = 0, remote = 0, max_stride = 0;
    for (const spmd::RecvPlan& rv : s->recv) {
      runs += rv.runs;
      for (i64 id : rv.ids) {
        halo += id >= R + P ? 1 : 0;
        remote += id >= R && id < R + P ? 1 : 0;
      }
      for (std::size_t q = 0; q < rv.run_addr.size(); q += 2 * R)
        for (i64 r = 0; r < R; ++r)
          max_stride = std::max(max_stride, rv.run_addr[q + R + r]);
    }
    EXPECT_GT(runs, 0) << "clause " << k;
    EXPECT_GT(remote, 0) << "clause " << k;
    EXPECT_EQ(halo > 0, k == 0) << "clause " << k;  // only 1-D has halos
    EXPECT_EQ(max_stride > 1, k == 2) << "clause " << k;
  }

  auto load = [](auto& m) {
    std::vector<double> v(256), w(64 * 16);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<double>((i * 7) % 11);
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = static_cast<double>((i * 5) % 9) - 1.5;
    m.load("B", v);
    m.load("C", v);
    m.load("N", w);
  };
  EngineOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.jit = false;
  DistMachine tagged(program, {}, {}, ref_opts);
  load(tagged);
  for (const FaultPlan& f : reorder_every_step(program)) tagged.inject(f);
  tagged.run();
  ASSERT_EQ(tagged.comm_stats().sched_builds, 0);

  for (int threads : {1, 4})
    for (bool jit : {false, true}) {
      SCOPED_TRACE(cat("threads ", threads, " jit ", jit));
      EngineOptions e;
      e.threads = threads;
      e.jit = jit;
      e.jit_threshold = 1;
      e.jit_sync = true;
      DistMachine d(program, {}, {}, e);
      load(d);
      d.run();
      SharedMachine sh(program, {}, {}, /*elide_barriers=*/false, e);
      load(sh);
      sh.run();
      for (const char* name : {"A", "M", "T"}) {
        EXPECT_EQ(d.gather(name), tagged.gather(name)) << name;
        EXPECT_EQ(sh.result(name), tagged.gather(name)) << name;
      }
      EXPECT_EQ(d.stats().messages, tagged.stats().messages);
      EXPECT_EQ(d.message_matrix(), tagged.message_matrix());
      EXPECT_EQ(d.comm_stats().sched_builds, 3);
      EXPECT_EQ(d.comm_stats().sched_hits, 6);
      EXPECT_EQ(sh.comm_stats().sched_hits, 6);
      if (jit && spmd::jit_toolchain_available()) {
        EXPECT_GT(d.path_counters().jit, 0);
        EXPECT_GT(sh.path_counters().jit, 0);
      }
    }
}

// The schedule of an AffineMod clause, built element by element the way
// the inspector resolved every element before it stepped stretches:
// each subscript through ClauseKernel::subs_into, each operand through
// ArrayDesc::locate, every element a record. Null when some element
// would fault.
std::unique_ptr<spmd::CommSchedule> per_element_schedule(
    const spmd::ClausePlan& plan) {
  const spmd::ClauseKernel& kern = plan.kernel();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(plan.clause().refs.size());
  auto cs = std::make_unique<spmd::CommSchedule>();
  cs->init(procs, static_cast<int>(plan.clause().loops.size()), nrefs);
  for (i64 p = 0; p < procs; ++p) {
    RankCounters& rc = cs->counters[static_cast<std::size_t>(p)];
    for (int r = 0; r < nrefs; ++r)
      if (plan.ref_needs_comm(r)) {
        const gen::EnumStats c = plan.reside_space(p, r).charge();
        rc.iterations += c.loop_iters;
        rc.tests += c.tests;
      }
    bool bad = false;
    std::vector<i64> out_idx, ridx;
    gen::EnumStats es;
    plan.modify_space(p).for_each(
        [&](const std::vector<i64>& vals) {
          spmd::ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), out_idx);
          bad = bad || !lhs.in_bounds(out_idx);
          for (int r = 0; r < nrefs && !bad; ++r) {
            const decomp::ArrayDesc& rd = plan.ref_desc(r);
            spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), ridx);
            if (!rd.in_bounds(ridx)) {
              bad = true;
              break;
            }
            const decomp::Location at = rd.locate(ridx);
            const i64 src = rd.is_replicated() ? p : at.owner;
            if (src != p && rd.halo() > 0 && rd.in_halo(p, ridx)) {
              cs->note_halo(p, r, rd.halo_slot(p, ridx[0]));
              ++rc.halo_reads;
            } else if (src == p) {
              cs->note_local(p, r, at.local);
              ++rc.local_reads;
            } else {
              std::vector<spmd::PackOp>& list =
                  cs->send[static_cast<std::size_t>(src)]
                      .to[static_cast<std::size_t>(p)];
              cs->note_remote(p, src, static_cast<i64>(list.size()));
              list.push_back({static_cast<std::int32_t>(r), at.local});
              ++rc.receives;
              ++rc.remote_reads;
            }
          }
          if (bad) return;
          i64 slot = lhs.locate(out_idx).local;
          if (!in_range(slot, 0, lhs.local_capacity(p) - 1)) slot = -1;
          cs->note_element(p, slot, vals.data());
        },
        &es);
    if (bad) return nullptr;
    rc.iterations += es.loop_iters;
    rc.tests += es.tests;
  }
  for (i64 src = 0; src < procs; ++src)
    for (i64 dst = 0; dst < procs; ++dst) {
      const auto m = static_cast<i64>(cs->send[static_cast<std::size_t>(src)]
                                          .to[static_cast<std::size_t>(dst)]
                                          .size());
      if (m == 0) continue;
      cs->counters[static_cast<std::size_t>(src)].sends += m;
      ++cs->counters[static_cast<std::size_t>(src)].bulk_sends;
      ++cs->counters[static_cast<std::size_t>(dst)].bulk_receives;
      cs->matrix_delta[static_cast<std::size_t>(src * procs + dst)] = m;
      cs->packed_ops += m;
    }
  return cs;
}

void expect_same_schedule(const spmd::CommSchedule& got,
                          const spmd::CommSchedule& want) {
  ASSERT_EQ(got.procs, want.procs);
  for (std::size_t p = 0; p < got.recv.size(); ++p) {
    SCOPED_TRACE(cat("rank ", p));
    const spmd::RecvPlan& g = got.recv[p];
    const spmd::RecvPlan& w = want.recv[p];
    EXPECT_EQ(g.n, w.n);
    EXPECT_EQ(g.runs, w.runs);
    EXPECT_EQ(g.oob_slot, w.oob_slot);
    ASSERT_EQ(g.segs.size(), w.segs.size());
    for (std::size_t k = 0; k < g.segs.size(); ++k) {
      EXPECT_EQ(g.segs[k].n, w.segs[k].n);
      EXPECT_EQ(g.segs[k].at, w.segs[k].at);
      EXPECT_EQ(g.segs[k].run, w.segs[k].run);
    }
    EXPECT_EQ(g.lhs_slot, w.lhs_slot);
    EXPECT_EQ(g.vals, w.vals);
    EXPECT_EQ(g.ids, w.ids);
    EXPECT_EQ(g.offs, w.offs);
    EXPECT_EQ(g.run_vals, w.run_vals);
    EXPECT_EQ(g.run_addr, w.run_addr);
    for (std::size_t d = 0; d < got.send[p].to.size(); ++d) {
      const auto& gl = got.send[p].to[d];
      const auto& wl = want.send[p].to[d];
      ASSERT_EQ(gl.size(), wl.size()) << "to " << d;
      for (std::size_t k = 0; k < gl.size(); ++k) {
        EXPECT_EQ(gl[k].ref, wl[k].ref);
        EXPECT_EQ(gl[k].offset, wl[k].offset);
      }
    }
    EXPECT_EQ(counters_str(got.counters[p]), counters_str(want.counters[p]));
  }
  EXPECT_EQ(got.matrix_delta, want.matrix_delta);
  EXPECT_EQ(got.packed_ops, want.packed_ops);
}

// (a*i + c) mod z + d subscripts over every 1-D layout (and the 2-D
// ones), reads and writes: z = 13 does not divide the 47-element loop
// range and a*47 wraps it several times; the writes wrap once, and a
// 2-D read takes the mod in one dimension, on its inner loop and on its
// outer one.
std::string affine_mod_src(i64 procs, const std::string& lay_a,
                           const std::string& lay_b, const std::string& lay_m,
                           bool guarded) {
  std::string s = cat("processors ", procs,
                      ";\narray A[-5:54];\narray B[-5:54];\n"
                      "array M[0:11, -2:9];\narray N[0:10, 0:7];\n"
                      "distribute A ", lay_a, ";\ndistribute B ", lay_b,
                      ";\ndistribute M ", lay_m, ";\ndistribute N ", lay_m,
                      ";\n");
  const std::string guard = guarded ? " | B[(2*i - 3) mod 11 - 4] > 9" : "";
  const std::string lhs[] = {"A[(i - 9) mod 50 - 3]", "A[(-1*i - 9) mod 50 - 3]"};
  int k = 0;
  for (i64 a : {1, 2, 3, 5, -1}) {
    s += cat("forall i in 0:46", guard, " do ", lhs[k++ % 2],
             " := B[(", a, "*i - 7) mod 13 - 2] * 2 + B[(", a,
             "*i - 20) mod 23 + 31] + i; od\n");
  }
  s += cat("forall i in 0:10, j in 0:7 do N[i, j] := M[i, (3*j - 5) mod 7 - 1]"
           " + M[(-1*i - 4) mod 9 + 2, j + 1] + j; od\n");
  return s;
}

TEST(CommSchedule, AffineModSchedulesMatchAPerElementReference) {
  const std::vector<std::string> one_d = {
      "block",           "scatter",    "blockscatter(3)",
      "blockscatter(16)", "replicated", "block overlap(1)"};
  const std::vector<std::string> two_d = {"(block, scatter)", "(scatter, *)",
                                          "replicated"};
  i64 checked = 0;
  for (i64 procs : {3, 4})
    for (std::size_t k = 0; k < one_d.size(); ++k)
      for (bool guarded : {false, true}) {
        const std::string src =
            affine_mod_src(procs, one_d[k], one_d[(k + 2) % one_d.size()],
                           two_d[k % two_d.size()], guarded);
        SCOPED_TRACE(src);
        spmd::Program program = lang::compile(src);
        // 1. Every clause's schedule equals the per-element reference,
        // record for record.
        spmd::PlanCache cache;
        for (std::size_t c = 0; c < program.steps.size(); ++c) {
          const spmd::ClausePlan& plan = cache.get(
              std::get<prog::Clause>(program.steps[c]), program.arrays);
          ASSERT_FALSE(plan.kernel().affine());
          std::unique_ptr<spmd::CommSchedule> want =
              per_element_schedule(plan);
          std::unique_ptr<spmd::CommSchedule> got =
              inspect(program, c, cache);
          ASSERT_TRUE(want) << "clause " << c;
          ASSERT_TRUE(got) << "clause " << c;
          SCOPED_TRACE(cat("clause ", c));
          expect_same_schedule(*got, *want);
          ++checked;
        }
        // 2. Stores equal the tagged reference's, on dist and shared.
        auto load = [](auto& m) {
          std::vector<double> v(60), w(12 * 12), x(11 * 8);
          for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<double>((i * 7) % 19);
          for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = static_cast<double>((i * 5) % 13) - 1.5;
          m.load("B", v);
          m.load("M", w);
          m.load("N", x);
        };
        EngineOptions ref_opts;
        ref_opts.threads = 1;
        ref_opts.jit = false;
        DistMachine tagged(program, {}, {}, ref_opts);
        load(tagged);
        for (const FaultPlan& f : reorder_every_step(program))
          tagged.inject(f);
        tagged.run();
        for (int threads : {1, 4})
          for (bool jit : {false, true}) {
            SCOPED_TRACE(cat("threads ", threads, " jit ", jit));
            EngineOptions e;
            e.threads = threads;
            e.jit = jit;
            e.jit_threshold = 1;
            e.jit_sync = true;
            DistMachine d(program, {}, {}, e);
            load(d);
            d.run();
            SharedMachine sh(program, {}, {}, /*elide_barriers=*/false, e);
            load(sh);
            sh.run();
            for (const char* name : {"A", "N"}) {
              EXPECT_EQ(d.gather(name), tagged.gather(name)) << name;
              EXPECT_EQ(sh.result(name), tagged.gather(name)) << name;
            }
            EXPECT_EQ(d.stats().messages, tagged.stats().messages);
            EXPECT_EQ(d.message_matrix(), tagged.message_matrix());
          }
      }
  EXPECT_EQ(checked, 2 * 6 * 2 * 6);
}

// Stand-ins for a jitted module's entry points: count calls, write
// nothing.
int g_jit_calls = 0;
void count_fused(double*, i64, i64, const double* const*, const i64*,
                 const i64*, const i64*, i64, i64, i64) {
  ++g_jit_calls;
}
void count_replay(double*, const double* const*, const i64*, const i64*,
                  const i64*, const i64*, i64) {
  ++g_jit_calls;
}

TEST(CommSchedule, GuardedOutOfRangeSlotStaysOnBytecode) {
  // Rank 0's schedule, written by hand: a run over its 8 elements, then
  // one record whose write slot lies outside its row (-1). A rank that
  // holds such a slot must replay on bytecode even with jitted entries
  // at hand, and raise the tagged path's fault only when the guard
  // holds.
  spmd::Program program = lang::compile(
      "processors 4;\narray A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B block;\n"
      "forall i in 0:31 | B[i] > 100 do A[i] := B[i] + 1; od\n");
  spmd::PlanCache cache;
  const spmd::ClausePlan& plan =
      cache.get(std::get<prog::Clause>(program.steps[0]), program.arrays);
  auto schedule = [](bool oob) {
    spmd::CommSchedule s;
    s.init(4, /*nloops=*/1, /*nrefs=*/1);
    std::vector<i64> vals{0};
    i64 addr = 0;
    const i64 stride = 1;
    spmd::FusedRun f;
    f.vstride = 1;
    f.n = spmd::CommSchedule::kMinRun;
    f.lstride = 1;
    f.raddr = &addr;
    f.rstride = &stride;
    s.note_run(0, vals.data(), f);
    vals[0] = 8;
    s.note_element(0, oob ? -1 : 7, vals.data());
    s.note_local(0, 0, 0);
    return s;
  };
  const spmd::JitFns fns{count_fused, count_replay};
  std::vector<double> b(8, 1.0), out(8, 0.0);
  RankRows rr;
  rr.rows = {&b};
  rr.halo = {nullptr};

  // Without the -1 slot the jitted entries run every segment.
  spmd::CommSchedule clean = schedule(false);
  PathCounters pc;
  g_jit_calls = 0;
  replay_rank(clean, plan, RankSite{}, rr, nullptr, 0, out, &fns, pc);
  EXPECT_EQ(g_jit_calls, 2);
  EXPECT_EQ(pc.jit, 9);
  EXPECT_EQ(pc.sched, 0);

  // With it, bytecode: guards false everywhere, so nothing faults.
  spmd::CommSchedule oob = schedule(true);
  EXPECT_TRUE(oob.recv[0].oob_slot);
  pc = PathCounters{};
  g_jit_calls = 0;
  replay_rank(oob, plan, RankSite{}, rr, nullptr, 0, out, &fns, pc);
  EXPECT_EQ(g_jit_calls, 0);
  EXPECT_EQ(pc.sched, 9);
  EXPECT_EQ(pc.jit, 0);
  EXPECT_EQ(out, std::vector<double>(8, 0.0));

  // A guard that holds on the -1 record raises the tagged path's text.
  b[0] = 200.0;
  try {
    replay_rank(oob, plan, RankSite{}, rr, nullptr, 0, out, &fns, pc);
    ADD_FAILURE() << "no fault";
  } catch (const RuntimeFault& f) {
    EXPECT_STREQ(f.what(), "local write out of bounds on A");
  }
  EXPECT_EQ(g_jit_calls, 0);
  EXPECT_EQ(out[0], 201.0);  // the run ahead of it stored
}

}  // namespace
}  // namespace vcal::rt
