// Tests for compiled communication schedules (src/spmd/comm_schedule):
// the inspector/executor split on both machines, one schedule per layout
// across redistributions, the replay accounting surfaced through
// CommStats, the inspector's faults, and the run-level schedule format
// (strided runs plus per-element records). Two references stand in for
// a second execution path: stores must match the sequential executor,
// and every inspected schedule must match the per-element reference
// schedule (verify/reference_schedule.hpp) record for record.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "lang/translate.hpp"
#include "proc/proc_machine.hpp"
#include "rt/dist_machine.hpp"
#include "rt/rank_step.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "spmd/jit.hpp"
#include "verify/program_gen.hpp"
#include "verify/reference_schedule.hpp"

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

DistRun run_dist(const std::string& src, EngineOptions e) {
  spmd::Program program = lang::compile(src);
  DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  m.run();
  return {m.gather("A"), m.stats(), m.message_matrix(), m.comm_stats(),
          m.path_counters()};
}

// A's final store by the sequential reference executor.
std::vector<double> seq_a(const std::string& src) {
  SeqExecutor seq(lang::compile(src), /*reference=*/true);
  seq.load("B", ramp(32));
  seq.run();
  return seq.result("A");
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

// The schedule the inspector derives for `plan`, every rank in order.
std::unique_ptr<spmd::CommSchedule> inspect(const spmd::ClausePlan& plan) {
  Inspector inspector(plan);
  for (i64 p = 0; p < plan.procs(); ++p) inspector.rank(RankSite{p});
  return inspector.finish();
}

// The schedule the inspector derives for clause step `k` of `program` at
// its declared layouts.
std::unique_ptr<spmd::CommSchedule> inspect(const spmd::Program& program,
                                            std::size_t k,
                                            spmd::PlanCache& cache) {
  return inspect(
      cache.get(std::get<prog::Clause>(program.steps[k]), program.arrays));
}

// The clause traffic of `program` by the per-element reference: each
// clause step's reference schedule at the layouts the program has
// reached there, which the inspector's must match record for record.
struct Traffic {
  i64 messages = 0;
  std::vector<std::vector<i64>> matrix;
};

Traffic reference_traffic(const spmd::Program& program) {
  const auto procs = static_cast<std::size_t>(program.procs);
  Traffic t;
  t.matrix.assign(procs, std::vector<i64>(procs, 0));
  spmd::ArrayTable layout = program.arrays;
  spmd::PlanCache cache;
  for (std::size_t k = 0; k < program.steps.size(); ++k) {
    if (const auto* rs = std::get_if<spmd::RedistStep>(&program.steps[k])) {
      layout.insert_or_assign(rs->array, rs->new_desc);
      continue;
    }
    const spmd::ClausePlan& plan =
        cache.get(std::get<prog::Clause>(program.steps[k]), layout);
    std::unique_ptr<spmd::CommSchedule> want =
        verify::reference_schedule(plan);
    if (!want) {
      ADD_FAILURE() << "step " << k << ": the reference faults";
      continue;
    }
    EXPECT_EQ(verify::schedule_diff(*inspect(plan), *want), "")
        << "step " << k;
    t.messages += want->packed_ops;
    for (std::size_t q = 0; q < procs * procs; ++q)
      t.matrix[q / procs][q % procs] += want->matrix_delta[q];
  }
  return t;
}

TEST(CommSchedule, ReplayMatchesTheReferences) {
  const std::string src = repeat_src(6);
  const Traffic want = reference_traffic(lang::compile(src));
  DistRun serial;
  for (int threads : {1, 4}) {
    EngineOptions e;
    e.threads = threads;
    DistRun r = run_dist(src, e);
    EXPECT_EQ(r.a, seq_a(src)) << threads;
    EXPECT_EQ(r.stats.messages, want.messages) << threads;
    EXPECT_EQ(r.stats.remote_reads, want.messages) << threads;
    EXPECT_EQ(r.matrix, want.matrix) << threads;
    EXPECT_EQ(r.comm.sched_builds, 1) << threads;
    EXPECT_EQ(r.comm.sched_hits, 5) << threads;
    EXPECT_EQ(r.comm.sched_fallbacks, 0) << threads;
    // Every packed value is consumed exactly once by a recorded slot.
    EXPECT_GT(r.comm.packed_values, 0);
    EXPECT_EQ(r.comm.packed_values, r.comm.unpacked_values);
    EXPECT_EQ(r.comm.packed_bytes,
              r.comm.packed_values * static_cast<i64>(sizeof(double)));
    // Replayed elements land in the sched path-counter column (or jit,
    // when the background-compiled module swapped in mid-run).
    EXPECT_GT(r.paths.sched + r.paths.jit, 0);
    if (threads == 1)
      serial = r;
    else
      expect_same_observables(r, serial);
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
  const std::string src = repeat_src(6, /*redistribute_middle=*/true);
  spmd::Program program = lang::compile(src);
  DistMachine m(program, {}, {}, {});
  m.load("B", ramp(32));
  m.run();
  // Three executions on each side of the redistribution: the new layout
  // records a schedule of its own (plan and slot offsets bake the layout
  // in), and the old layout's schedule stays for a return to it.
  EXPECT_EQ(m.comm_stats().sched_builds, 2);
  EXPECT_EQ(m.comm_stats().sched_hits, 4);
  EXPECT_EQ(m.plan_cache().schedules(), 2);

  // And the run matches both references.
  EXPECT_EQ(m.gather("A"), seq_a(src));
  EXPECT_EQ(m.stats().messages - m.stats().redist_messages,
            reference_traffic(program).messages);
}

TEST(CommSchedule, NonAffineClausesInspectAndReplayThroughTheKernel) {
  // The rotate read is affine-mod: the inspector resolves the kernel's
  // mod records and every execution — the inspected first one included
  // — runs the schedule with the bytecode RHS. No element takes a
  // per-element path and none is tree-walked.
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
  // both machines, from 2 plan builds. The result matches the
  // sequential reference, and the traffic the per-element one.
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

  EXPECT_EQ(d.gather("A"), seq_a(src));
  EXPECT_EQ(d.stats().messages - d.stats().redist_messages,
            reference_traffic(program).messages);
}

// Every clause step of a generated corpus, at the layouts reached there:
// the inspected schedule matches the per-element reference record for
// record, and the step the dist machine runs counts exactly what the
// reference counts. Programs run prefix by prefix so each step's
// last_step_counters() and message_matrix() increment are compared right
// after that step.
TEST(CommSchedule, InspectedStepsMatchTheReferenceOnAGeneratedCorpus) {
  auto run_prefix = [](const spmd::Program& program, std::size_t steps) {
    spmd::Program prefix = program;
    prefix.steps.resize(steps);
    EngineOptions e;
    e.threads = 1;
    e.jit = false;
    DistMachine m(prefix, {}, {}, e);
    for (const auto& [name, desc] : prefix.arrays) {
      std::vector<double> v(static_cast<std::size_t>(desc.total()));
      for (std::size_t k = 0; k < v.size(); ++k)
        v[k] = static_cast<double>(k % 7) * 1.5 - 2.0;
      m.load(name, v);
    }
    m.run();
    return std::make_pair(m.last_step_counters(), m.message_matrix());
  };
  // The counters a step replays from its schedule: all but the halo
  // exchange's, which the live refresh charges.
  auto scheduled = [](const RankCounters& c) {
    return cat(c.sends, ",", c.receives, ",", c.iterations, ",", c.tests,
               ",", c.local_reads, ",", c.remote_reads, ",", c.bulk_sends,
               ",", c.bulk_receives, ",", c.halo_reads);
  };

  i64 replicated_lhs = 0, halo_refs = 0, guarded = 0, two_d = 0,
      redists = 0, inspected = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    verify::GeneratedProgram gp = verify::ProgramGen(seed).next();
    const std::string src = gp.source();
    SCOPED_TRACE(cat("seed ", seed, ":\n", src));
    spmd::Program program = lang::compile(src);
    spmd::ArrayTable layout = program.arrays;
    spmd::PlanCache cache;
    std::vector<std::vector<i64>> before(
        static_cast<std::size_t>(program.procs),
        std::vector<i64>(static_cast<std::size_t>(program.procs), 0));
    for (std::size_t k = 0; k < program.steps.size(); ++k) {
      const auto [counters, matrix] = run_prefix(program, k + 1);
      if (const auto* rs = std::get_if<spmd::RedistStep>(&program.steps[k])) {
        layout.insert_or_assign(rs->array, rs->new_desc);
        ++redists;
        before = matrix;
        continue;
      }
      const prog::Clause& c = std::get<prog::Clause>(program.steps[k]);
      replicated_lhs += layout.at(c.lhs_array).is_replicated() ? 1 : 0;
      for (const prog::ArrayRef& r : c.refs)
        halo_refs += layout.at(r.array).halo() > 0 ? 1 : 0;
      guarded += c.guard ? 1 : 0;
      two_d += c.loops.size() == 2 ? 1 : 0;
      ++inspected;

      const spmd::ClausePlan& plan = cache.get(c, layout);
      std::unique_ptr<spmd::CommSchedule> want =
          verify::reference_schedule(plan);
      ASSERT_TRUE(want) << "step " << k;
      EXPECT_EQ(verify::schedule_diff(*inspect(plan), *want), "")
          << "step " << k;
      ASSERT_EQ(counters.size(), want->counters.size()) << "step " << k;
      for (std::size_t p = 0; p < counters.size(); ++p) {
        EXPECT_EQ(scheduled(counters[p]), scheduled(want->counters[p]))
            << "step " << k << " rank " << p;
        for (std::size_t q = 0; q < counters.size(); ++q)
          EXPECT_EQ(matrix[p][q] - before[p][q],
                    want->matrix_delta[p * counters.size() + q])
              << "step " << k << " " << p << " -> " << q;
      }
      before = matrix;
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

std::string proc_worker() { return VCALC_PATH; }

TEST(CommSchedule, FaultingClausesFaultAlikeAndStoreNoSchedule) {
  // The inspector raises a faulting element's own error, and no
  // schedule is stored; every target raises the same text. B[i - 1]
  // reads outside B at i = 0; C is replicated, so C[i mod (i - 11)] is
  // first evaluated by the executors (not by plan construction) and
  // divides by zero at i = 11. With both, rank 0's out-of-bounds read is
  // the error raised, though the division faults on rank 1.
  // B[(i + 20) mod 40 - 8] stays inside B until its mod piece wraps at
  // i = 20 (to B[-8]), so only the second stretch of rank 2's run leaves
  // the array; B[(i + 24) mod 40 - 8] leaves it on rank 2 alone (i =
  // 16..23), and B[i + 4] in the middle of rank 3's stretch, after four
  // clean elements. C[i + 1] := B[i + 1] leaves both arrays at i = 31,
  // where the write's fault wins — on the machines that write a
  // replicated LHS's every element; the sequential executor skips a
  // write outside its array (docs/language.md), so it raises nothing
  // there. The last case is a 2-D clause.
  const std::string decls =
      "processors 4;\narray A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n"
      "array C[0:31];\ndistribute C replicated;\n";
  const std::string grid =
      "processors 4;\narray M[0:7, 0:7];\ndistribute M (block, *);\n"
      "array N[0:7, 0:7];\ndistribute N (scatter, *);\n";
  const struct {
    std::string src;
    const char* error;
    const char* seq_error;  // null: the sequential executor runs clean
  } cases[] = {
      {decls + "forall i in 0:31 do A[i] := B[i - 1]; od\n",
       "read out of bounds on B", "read out of bounds on B"},
      {decls + "forall i in 0:31 do A[i] := C[i mod (i - 11)]; od\n",
       "'mod' by zero in a subscript", "'mod' by zero in a subscript"},
      {decls +
           "forall i in 0:31 do A[i] := B[i - 1] + C[i mod (i - 11)]; od\n",
       "read out of bounds on B", "read out of bounds on B"},
      {decls + "forall i in 0:31 do A[i] := B[(i + 20) mod 40 - 8]; od\n",
       "read out of bounds on B", "read out of bounds on B"},
      {decls + "forall i in 0:31 do A[i] := B[(i + 24) mod 40 - 8]; od\n",
       "read out of bounds on B", "read out of bounds on B"},
      {decls + "forall i in 0:31 do A[i] := B[i + 4]; od\n",
       "read out of bounds on B", "read out of bounds on B"},
      {decls + "forall i in 0:31 do C[i + 1] := B[i + 1]; od\n",
       "write out of bounds on C", nullptr},
      {grid + "forall i in 0:7, j in 0:7 do M[i, j] := N[i, j + 1]; od\n",
       "read out of bounds on N", "read out of bounds on N"},
  };
  auto load = [](auto& m, const spmd::Program& program) {
    for (const auto& [name, desc] : program.arrays)
      m.load(name, ramp(desc.total()));
  };
  // Runs `m`, which must raise `error`.
  auto expect_fault = [&](auto& m, const spmd::Program& program,
                          const char* error, const std::string& where) {
    load(m, program);
    try {
      m.run();
      ADD_FAILURE() << where << ": no fault";
    } catch (const RuntimeFault& f) {
      EXPECT_STREQ(f.what(), error) << where;
    }
  };
  // A clean program on the same context and plan scope (one per machine
  // kind, as the server keeps them) still builds and replays its
  // schedules.
  const std::string clean = repeat_src(3);
  auto expect_clean = [&](auto& m, const std::string& where) {
    m.load("B", ramp(32));
    m.run();
    EXPECT_EQ(m.comm_stats().sched_builds, 1) << where;
    EXPECT_EQ(m.comm_stats().sched_hits, 2) << where;
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.src);
    spmd::Program program = lang::compile(c.src);
    for (int threads : {1, 4}) {
      const std::string where = cat("threads ", threads);
      EngineOptions e;
      e.threads = threads;
      auto ctx = std::make_shared<EngineContext>();
      {
        DistMachine m(program, {}, {}, e, ctx, "dist");
        expect_fault(m, program, c.error, "dist, " + where);
        EXPECT_EQ(m.plan_cache().schedules(), 0) << where;
        EXPECT_EQ(m.comm_stats().sched_builds, 0) << where;
        EXPECT_EQ(m.comm_stats().sched_hits, 0) << where;
      }
      {
        DistMachine m(lang::compile(clean), {}, {}, e, ctx, "dist");
        expect_clean(m, "dist after the fault, " + where);
        EXPECT_EQ(m.plan_cache().schedules(), 1) << where;
      }
      {
        SharedMachine sh(program, {}, {}, /*elide_barriers=*/false, e, ctx,
                         "shared");
        expect_fault(sh, program, c.error, "shared, " + where);
        EXPECT_EQ(sh.comm_stats().sched_builds, 0) << where;
      }
      {
        SharedMachine sh(lang::compile(clean), {}, {},
                         /*elide_barriers=*/false, e, ctx, "shared");
        expect_clean(sh, "shared after the fault, " + where);
      }
    }
    EngineOptions e;
    e.jit = false;
    proc::ProcOptions po;
    po.worker_path = proc_worker();
    proc::ProcMachine pm(c.src, {}, {}, e, po);
    expect_fault(pm, program, c.error, "proc");
    SeqExecutor seq(program);
    if (c.seq_error) {
      expect_fault(seq, program, c.seq_error, "seq");
    } else {
      load(seq, program);
      EXPECT_NO_THROW(seq.run());
    }
  }
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

TEST(CommSchedule, MixedSchedulesReplayLikeTheReferences) {
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
  SeqExecutor seq(program, /*reference=*/true);
  load(seq);
  seq.run();
  const Traffic want = reference_traffic(program);

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
        EXPECT_EQ(d.gather(name), seq.result(name)) << name;
        EXPECT_EQ(sh.result(name), seq.result(name)) << name;
      }
      EXPECT_EQ(d.stats().messages, want.messages);
      EXPECT_EQ(d.message_matrix(), want.matrix);
      EXPECT_EQ(d.comm_stats().sched_builds, 3);
      EXPECT_EQ(d.comm_stats().sched_hits, 6);
      EXPECT_EQ(sh.comm_stats().sched_hits, 6);
      if (jit && spmd::jit_toolchain_available()) {
        EXPECT_GT(d.path_counters().jit, 0);
        EXPECT_GT(sh.path_counters().jit, 0);
      }
    }
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
              verify::reference_schedule(plan);
          ASSERT_TRUE(want) << "clause " << c;
          EXPECT_EQ(verify::schedule_diff(*inspect(plan), *want), "")
              << "clause " << c;
          ++checked;
        }
        // 2. Stores equal the sequential reference's, on dist and shared,
        // and dist's traffic the per-element reference's.
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
        SeqExecutor seq(program, /*reference=*/true);
        load(seq);
        seq.run();
        const Traffic want = reference_traffic(program);
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
              EXPECT_EQ(d.gather(name), seq.result(name)) << name;
              EXPECT_EQ(sh.result(name), seq.result(name)) << name;
            }
            EXPECT_EQ(d.stats().messages, want.messages);
            EXPECT_EQ(d.message_matrix(), want.matrix);
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
  // at hand, and raise the write's fault only when the guard holds.
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

  // A guard that holds on the -1 record raises the write's fault.
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
