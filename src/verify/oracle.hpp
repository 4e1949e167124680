// Differential conformance oracle for the execution engine.
//
// The paper's claims are about *which* indices each node iterates and
// *which* messages flow (Theorems 1-3, Table I); the engine's claim is
// that none of its fast paths — compiled clause kernels, thread pools,
// compiled communication schedules, jitted native code — change any
// observable. The oracle machine-checks both: it runs a program through
// the sequential reference (the tree-walking ground truth, then its
// compiled-kernel mode), the shared-memory machine, and the distributed
// machine under the full engine matrix
//
//     threads in {serial, shared pool, 4 lanes}
//   x event tracing {off, on}
//   x native jit {off, synchronously compiled} (with the jit axis)
//   x build {optimized, run-time resolution}
//
// plus two opt-in axes: the multi-process backend (--proc) and the
// whole-program native backend (--native: the emitted OpenMP C
// compiled, dlopened, and run — see rt/native_machine.hpp).
//
// It asserts bit-identical result arrays everywhere, bit-identical
// DistStats / message matrices across engine configurations, that the
// communication schedule the inspector derives for every clause step,
// at the layouts the program has reached, equals the per-element
// reference (verify/reference_schedule.hpp) record for record, and the
// statistics invariants the runtime promises:
//
//   * message conservation: matrix diagonal empty, per-(src,dst) totals
//     summing to stats.messages, every element send consumed by exactly
//     one remote read or one redistribution move
//     (messages == remote_reads + redist_messages);
//   * aggregation bound: bulk messages never exceed steps * P * (P-1);
//   * optimizer test class: compile-time schedules never perform more
//     run-time membership tests than the run-time-resolution baseline
//     (O(n/P) enumeration vs O(n) filtering), at identical traffic;
//   * cost-model monotonicity/linearity: doubling every price exactly
//     doubles the simulated makespan and changes no counter.
//
// run_corpus drives seeded random programs (see program_gen.hpp)
// through the check; the first failure is shrunk to a minimal
// reproducer and reported with the exact seed that replays it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spmd/program.hpp"
#include "verify/program_gen.hpp"

namespace vcal::verify {

struct CheckResult {
  bool ok = true;
  int runs = 0;             // machine executions performed
  int schedules = 0;        // clause steps whose inspected schedule
                            // matched the per-element reference
  std::string diagnostics;  // first divergence / violated invariant
  // Execution-path tally over every machine run: how many elements went
  // through a fused strided kernel loop, the per-element kernel path,
  // the tree-walking interpreter (0: dist and shared have none),
  // compiled-schedule replay, and jitted native code (see
  // rt::PathCounters).
  std::int64_t fused = 0;
  std::int64_t generic = 0;
  std::int64_t interp = 0;
  std::int64_t sched = 0;
  std::int64_t jit = 0;

  std::string str() const;
};

struct OracleOptions {
  int iters = 100;
  std::uint64_t seed = 1;
  /// Include the jit engine axis (synchronous native compiles of affine
  /// clauses). --no-jit turns it off; configs without the
  /// axis always pin jit off for deterministic path tallies.
  bool jit_axis = true;
  /// Include the multi-process backend axis: every distributed program
  /// additionally runs on real spawned worker processes (ProcMachine)
  /// and must reproduce the simulator's results, DistStats, and message
  /// matrix bit-identically. Off by default — it forks 2 x P processes
  /// per program — and a no-op on platforms without the backend.
  bool proc_axis = false;
  /// Include the whole-program native backend axis: every program is
  /// additionally emitted as OpenMP C, compiled, dlopened, and run
  /// (rt::NativeMachine), and its final stores must be bit-identical
  /// to the sequential reference. Off by default — it spawns the
  /// system compiler per distinct program — and skipped silently when
  /// no toolchain is detected; with a toolchain present, a bytecode
  /// fallback (compile or dlopen failure) is a FAILURE, because it
  /// means the emitter generated broken C.
  bool native_axis = false;
  GenOptions gen;
};

struct OracleReport {
  bool ok = true;
  int programs = 0;
  int runs = 0;
  int schedules = 0;
  int failing_iter = -1;           // corpus iteration that failed
  std::uint64_t failing_seed = 0;  // derived seed replaying it alone
  std::string diagnostics;
  std::string reproducer;  // shrunk source
  // Aggregated execution-path tally across the corpus (see CheckResult).
  std::int64_t fused = 0;
  std::int64_t generic = 0;
  std::int64_t interp = 0;
  std::int64_t sched = 0;
  std::int64_t jit = 0;

  std::string str() const;
};

class Oracle {
 public:
  /// Differential conformance check of one compiled program with the
  /// given dense inputs (arrays not named are zero-filled).
  /// The proc axis ships the program to worker processes as vexl text
  /// (workers recompile; lang::compile is deterministic), so it needs
  /// `source` — with an empty source the axis is skipped. check_source
  /// always passes it through.
  static CheckResult check_program(
      const spmd::Program& program,
      const std::map<std::string, std::vector<double>>& inputs,
      bool jit_axis = true, bool proc_axis = false,
      const std::string& source = {}, bool native_axis = false);

  /// Compiles `source`, fills every array with deterministic values
  /// drawn from `input_seed`, and runs check_program.
  static CheckResult check_source(const std::string& source,
                                  std::uint64_t input_seed,
                                  bool jit_axis = true,
                                  bool proc_axis = false,
                                  bool native_axis = false);

  /// Runs `iters` random programs from the seeded corpus. Stops at the
  /// first failure, shrinks it to a minimal statement list, and reports
  /// the derived seed; replay with
  /// Oracle::run_corpus({.iters = 1, .seed = report.failing_seed}) or
  /// `vcalc --verify --iters 1 --seed <failing_seed>`.
  static OracleReport run_corpus(const OracleOptions& opts);
};

}  // namespace vcal::verify
