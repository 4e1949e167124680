// Tests for verify/: the differential conformance oracle, the random
// program generator, seed replay, shrinking, and the per-element
// reference schedule.
#include <gtest/gtest.h>

#include <cstdlib>

#include "lang/translate.hpp"
#include "rt/rank_step.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"
#include "verify/program_gen.hpp"
#include "verify/reference_schedule.hpp"

namespace vcal::verify {
namespace {

// ---------------------------------------------------------------------
// Program generator

TEST(ProgramGen, IsDeterministicPerSeed) {
  GenOptions opts;
  ProgramGen a(42, opts), b(42, opts), c(43, opts);
  GeneratedProgram ga = a.next(), gb = b.next(), gc = c.next();
  EXPECT_EQ(ga.source(), gb.source());
  EXPECT_NE(ga.source(), gc.source());  // astronomically unlikely to tie
  EXPECT_EQ(ga.seed, 42u);
}

TEST(ProgramGen, EveryDrawCompiles) {
  GenOptions opts;
  ProgramGen gen(7, opts);
  for (int k = 0; k < 50; ++k) {
    GeneratedProgram gp = gen.next();
    SCOPED_TRACE(cat("draw ", k, " seed ", gp.seed, ":\n", gp.source()));
    EXPECT_NO_THROW((void)lang::compile(gp.source()));
  }
}

TEST(ProgramGen, CoversRedistributeAnd2D) {
  GenOptions opts;
  ProgramGen gen(11, opts);
  bool saw_redist = false, saw_2d = false;
  for (int k = 0; k < 60; ++k) {
    GeneratedProgram gp = gen.next();
    std::string src = gp.source();
    if (contains(src, "redistribute")) saw_redist = true;
    if (contains(src, ",")) saw_2d = true;  // 2-D bounds "[0:r, 0:c]"
  }
  EXPECT_TRUE(saw_redist);
  EXPECT_TRUE(saw_2d);
}

// ---------------------------------------------------------------------
// Oracle conformance checks

TEST(Oracle, AcceptsAWellBehavedProgram) {
  CheckResult r = Oracle::check_source(
      "processors 4;\n"
      "array A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n",
      /*input_seed=*/5);
  EXPECT_TRUE(r.ok) << r.diagnostics;
  EXPECT_GT(r.runs, 10);  // seq + shared matrix + dist matrix + extras
  EXPECT_EQ(r.schedules, 1);  // the one clause step's schedule checked
}

TEST(Oracle, AcceptsRedistributeMidProgram) {
  CheckResult r = Oracle::check_source(
      "processors 3;\n"
      "array A[0:23];\ndistribute A block;\n"
      "array B[0:23];\ndistribute B block;\n"
      "forall i in 0:22 do A[i] := B[i + 1] + 1; od\n"
      "redistribute B scatter;\n"
      "forall i in 1:23 do B[i] := A[i - 1]*0.5; od\n",
      /*input_seed=*/5);
  EXPECT_TRUE(r.ok) << r.diagnostics;
}

TEST(Oracle, AcceptsSequentialClauseViaSharedHalf) {
  // '•' clauses are rejected by the distributed target; the oracle must
  // still differential-test the sequential and shared machines.
  CheckResult r = Oracle::check_source(
      "processors 2;\n"
      "array A[0:15];\ndistribute A block;\n"
      "for i in 1:15 do A[i] := A[i - 1] + 1; od\n",
      /*input_seed=*/5);
  EXPECT_TRUE(r.ok) << r.diagnostics;
}

TEST(Oracle, CorpusRunsCleanAndCountsRuns) {
  OracleOptions opts;
  opts.iters = 10;
  opts.seed = 2026;
  OracleReport rep = Oracle::run_corpus(opts);
  EXPECT_TRUE(rep.ok) << rep.str();
  EXPECT_EQ(rep.programs, 10);
  EXPECT_GT(rep.runs, 10 * 8);  // each program runs a whole matrix
}

TEST(Oracle, IterationZeroUsesTheSeedVerbatim) {
  // The replay contract: a reported failing_seed re-generates the same
  // program as iteration 0 of a fresh corpus with that seed.
  GenOptions gopts;
  ProgramGen direct(977, gopts);
  GeneratedProgram gp = direct.next();

  OracleOptions opts;
  opts.iters = 1;
  opts.seed = 977;
  OracleReport rep = Oracle::run_corpus(opts);
  EXPECT_EQ(rep.programs, 1);
  // Cross-check: run the same program through check_source with the
  // derived input seed and expect the same verdict.
  CheckResult direct_r =
      Oracle::check_source(gp.source(), Rng::derive(977, 0x1234));
  EXPECT_EQ(rep.ok, direct_r.ok);
}

// ---------------------------------------------------------------------
// The multi-process backend axis: the oracle's dist baseline doubles as
// the conformance reference for real spawned worker processes. The
// worker binary is the vcalc CLI, injected via $VCAL_WORKER_BIN.

#if defined(__linux__)

struct ProcAxisEnv {
  ProcAxisEnv() { ::setenv("VCAL_WORKER_BIN", VCALC_PATH, 1); }
  ~ProcAxisEnv() { ::unsetenv("VCAL_WORKER_BIN"); }
};

TEST(OracleProcAxis, CommunicatingProgramPassesAndAddsRuns) {
  ProcAxisEnv env;
  const std::string src =
      "processors 4;\n"
      "array A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n";
  CheckResult with = Oracle::check_source(src, /*input_seed=*/5,
                                          /*jit_axis=*/true,
                                          /*proc_axis=*/true);
  EXPECT_TRUE(with.ok) << with.diagnostics;
  CheckResult without = Oracle::check_source(src, /*input_seed=*/5);
  EXPECT_TRUE(without.ok) << without.diagnostics;
  // The axis contributes real machine executions (one per proc config).
  EXPECT_GT(with.runs, without.runs);
}

TEST(OracleProcAxis, MidProgramRedistributePasses) {
  ProcAxisEnv env;
  CheckResult r = Oracle::check_source(
      "processors 3;\n"
      "array A[0:23];\ndistribute A block;\n"
      "array B[0:23];\ndistribute B block;\n"
      "forall i in 0:22 do A[i] := B[i + 1] + 1; od\n"
      "redistribute B scatter;\n"
      "forall i in 1:23 do B[i] := A[i - 1]*0.5; od\n",
      /*input_seed=*/5, /*jit_axis=*/true, /*proc_axis=*/true);
  EXPECT_TRUE(r.ok) << r.diagnostics;
}

TEST(OracleProcAxis, SequentialClauseSkipsTheAxisGracefully) {
  // '•' clauses never reach the distributed half of the matrix, so the
  // proc axis must be a no-op rather than an error.
  ProcAxisEnv env;
  CheckResult r = Oracle::check_source(
      "processors 2;\n"
      "array A[0:15];\ndistribute A block;\n"
      "for i in 1:15 do A[i] := A[i - 1] + 1; od\n",
      /*input_seed=*/5, /*jit_axis=*/true, /*proc_axis=*/true);
  EXPECT_TRUE(r.ok) << r.diagnostics;
}

TEST(OracleProcAxis, SmallCorpusFuzzesTheRealBackend) {
  // A smaller budget than the plain corpus — each program forks 2 x P
  // workers — but the same property: every generated program, including
  // mid-program redistributes, is bit-identical across the process
  // boundary.
  ProcAxisEnv env;
  OracleOptions opts;
  opts.iters = 5;
  opts.seed = 2027;
  opts.proc_axis = true;
  OracleReport rep = Oracle::run_corpus(opts);
  EXPECT_TRUE(rep.ok) << rep.str();
  EXPECT_EQ(rep.programs, 5);
}

#endif  // __linux__

// ---------------------------------------------------------------------
// Reference schedules

std::unique_ptr<spmd::CommSchedule> inspect(const spmd::ClausePlan& plan) {
  rt::Inspector inspector(plan);
  for (i64 p = 0; p < plan.procs(); ++p) inspector.rank(rt::RankSite{p});
  return inspector.finish();
}

spmd::ClausePlan plan_of(const std::string& clause) {
  spmd::Program program = lang::compile(
      "processors 4;\narray U[0:63];\narray V[0:63];\narray W[0:63];\n"
      "distribute U block overlap(1);\ndistribute V block;\n"
      "distribute W scatter;\n" +
      clause);
  return spmd::ClausePlan::build(std::get<prog::Clause>(program.steps[0]),
                                 program.arrays);
}

const char* kStencil = "forall i in 1:62 do V[i] := (U[i-1] + U[i+1])/2; od\n";
const char* kScatterRead = "forall i in 0:62 do V[i] := W[i + 1]; od\n";

TEST(ReferenceSchedule, MatchesTheInspectorOnRunsAndRecords) {
  // The stencil's schedule holds strided runs and halo records, the
  // scatter read's remote records: expanded, the inspector's runs are
  // exactly the reference's per-element records.
  for (const char* clause : {kStencil, kScatterRead}) {
    const spmd::ClausePlan plan = plan_of(clause);
    std::unique_ptr<spmd::CommSchedule> want = reference_schedule(plan);
    ASSERT_TRUE(want) << clause;
    std::unique_ptr<spmd::CommSchedule> got = inspect(plan);
    EXPECT_EQ(schedule_diff(*got, *want), "") << clause;
    EXPECT_EQ(want->recv[1].runs, 0) << clause;  // the reference has none
    if (clause == kStencil) {
      EXPECT_GT(got->recv[1].runs, 0);
    } else {
      EXPECT_GT(got->packed_ops, 0);
    }
  }
}

TEST(ReferenceSchedule, DiffNamesTheFirstDivergence) {
  const spmd::ClausePlan scatter = plan_of(kScatterRead);
  const std::unique_ptr<spmd::CommSchedule> want = reference_schedule(scatter);
  ASSERT_TRUE(want);
  auto expect_diff = [&](const spmd::ClausePlan& plan,
                         const spmd::CommSchedule& reference, auto&& mutate,
                         const char* names) {
    std::unique_ptr<spmd::CommSchedule> got = inspect(plan);
    mutate(*got);
    const std::string d = schedule_diff(*got, reference);
    EXPECT_TRUE(contains(d, names)) << names << ": " << d;
  };
  expect_diff(scatter, *want,
              [](spmd::CommSchedule& s) { s.recv[2].offs[0] += 1; },
              "rank 2: operand offsets[0]");
  expect_diff(scatter, *want,
              [](spmd::CommSchedule& s) { s.send[1].to[0][0].offset += 1; },
              "rank 1: pack op 0 for rank 0");
  expect_diff(scatter, *want,
              [](spmd::CommSchedule& s) { s.counters[3].tests += 1; },
              "rank 3: counters");
  expect_diff(scatter, *want,
              [](spmd::CommSchedule& s) { s.matrix_delta[1] += 1; },
              "message-matrix increments[1]");
  // A run's offset progression is checked element by element.
  const spmd::ClausePlan stencil = plan_of(kStencil);
  const std::unique_ptr<spmd::CommSchedule> halo = reference_schedule(stencil);
  ASSERT_TRUE(halo);
  expect_diff(stencil, *halo,
              [](spmd::CommSchedule& s) { s.recv[1].run_addr[2] += 1; },
              "rank 1: operand offsets");
}

TEST(ReferenceSchedule, IsNullWhereTheInspectorFaults) {
  const spmd::ClausePlan plan =
      plan_of("forall i in 0:63 do V[i] := W[i - 1]; od\n");
  EXPECT_EQ(reference_schedule(plan), nullptr);
  try {
    inspect(plan);
    ADD_FAILURE() << "the inspector did not fault";
  } catch (const RuntimeFault& f) {
    EXPECT_STREQ(f.what(), "read out of bounds on W");
  }
}

}  // namespace
}  // namespace vcal::verify
