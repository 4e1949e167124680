// Tuning knobs of the fast-path execution engine shared by the runtime
// substrates (DistMachine, SharedMachine).
//
// None of these change observable semantics: results, DistStats
// counters, per-rank counters, and message matrices are bit-identical
// for every setting (the determinism tests in rt_test.cpp pin this).
// They exist so benchmarks can isolate each mechanism's contribution and
// so tests can force the serial path. Clause plans are always cached,
// keyed by the layouts of the arrays a clause touches and never
// invalidated (a redistribution selects another entry); clauses always
// run through their compiled kernels; and every clean clause step runs
// the communication schedule derived for its layout.
#pragma once

#include <string>

#include "support/math.hpp"

namespace vcal::rt {

/// Which execution path the engine took, counted per element. Reporting
/// only: deliberately kept out of DistStats and RankCounters, whose
/// fields are pinned bit-identical across every engine configuration.
struct PathCounters {
  i64 fused = 0;    // elements covered by a fused strided kernel loop
  i64 generic = 0;  // kernel path, element at a time (run edges,
                    // non-affine clauses, unprovable runs)
  i64 interp = 0;   // tree-walking elements: always 0, since every
                    // machine runs every clause through its kernel
  i64 sched = 0;    // elements replayed through a compiled
                    // communication schedule (inspector–executor)
  i64 jit = 0;      // elements executed through jitted native code
                    // (would otherwise land in fused or sched)

  PathCounters& operator+=(const PathCounters& o) {
    fused += o.fused;
    generic += o.generic;
    interp += o.interp;
    sched += o.sched;
    jit += o.jit;
    return *this;
  }

  /// "fused=N generic=N interp=N sched=N jit=N" via the
  /// obs::MetricsRegistry.
  std::string str() const;
};

/// Communication-schedule accounting. Reporting only — like
/// PathCounters, deliberately kept out of DistStats/SharedStats, which
/// must not depend on whether a step inspected, recorded or replayed
/// its schedule.
struct CommStats {
  i64 sched_builds = 0;     // schedules built (inspected or recorded)
  i64 sched_hits = 0;       // steps replaying a stored schedule
  i64 sched_fallbacks = 0;  // always 0: every clause step runs a
                            // schedule (kept for perfbench, which
                            // reads it)
  i64 packed_values = 0;    // elements packed positionally by scheduled
                            // steps
  i64 packed_bytes = 0;     // bytes of that packed payload
  i64 unpacked_values = 0;  // remote operands consumed by offset

  /// "sched-builds=N ..." via the obs::MetricsRegistry.
  std::string str() const;
};

struct EngineOptions {
  /// Total execution lanes for the per-rank phase loops. 0 uses the
  /// process-wide shared pool (sized to the hardware); 1 runs every
  /// rank loop inline on the caller; k > 1 gives the machine its own
  /// pool of k lanes.
  int threads = 0;

  /// Attach an obs::Tracer to the machine: per-rank ring-buffer event
  /// collection with dual (wall-clock + cost-model) timestamps. Off by
  /// default; the conformance oracle pins results/stats bit-identical
  /// with tracing on and off, so flipping this never changes a run.
  bool trace = false;

  /// Ring capacity per trace lane (events retained per rank; older
  /// events are overwritten and counted as dropped).
  i64 trace_capacity = 1 << 14;

  /// JIT native code generation for hot clause plans: once a cached
  /// plan reaches its `jit_threshold`th clean execution, its fused
  /// strided loop (and compiled-schedule replay) is emitted as C,
  /// compiled with the system toolchain into a content-addressed
  /// shared object, and dispatched through the resulting function
  /// pointers. Results are bit-identical to the bytecode kernel (the
  /// conformance oracle's `jit` axis pins this); without a detected
  /// compiler — or on any compile/dlopen failure — the bytecode kernel
  /// keeps running. Applies to affine clauses only.
  bool jit = true;

  /// Clean executions of a cached plan before its compile is armed
  /// (the default, 2, arms it on the first replay of the schedule the
  /// first execution at the layout built).
  int jit_threshold = 2;

  /// Block the arming step on the compiler instead of compiling on the
  /// background worker — deterministic dispatch for the oracle/tests.
  bool jit_sync = false;

  /// Directory for the content-addressed .c/.so cache. Empty uses
  /// $TMPDIR/vcal-jit-cache-<uid>.
  std::string jit_cache_dir;
};

}  // namespace vcal::rt
