// Fast-path execution engine throughput: the iterative relaxation kernel
// that motivates every optimization in this repository, run for T=200
// ping-pong sweeps at P in {4, 16, 64}.
//
//   even step:  A[i] := (B[i-1] + B[i+1]) / 2
//   odd step:   B[i] := (A[i-1] + A[i+1]) / 2
//
// Three engine configurations execute the identical program:
//
//   fast   — thread pool, per-(src,dst) bulk message aggregation,
//            clause-plan caching, scratch reuse, compiled clause kernels
//            and communication schedules (bytecode RHS, schedules
//            inspected once per clause and replayed); jit pinned off so
//            this row stays the pure-bytecode baseline
//   jit    — fast plus native code generation (synchronous compiles; a
//            warmup run populates the content-addressed .so cache so the
//            timed run measures steady-state dispatch, not the compiler)
//   native — the whole-program native backend (rt::NativeMachine): the
//            complete emitted OpenMP C compiled once (a warmup run
//            populates the content-addressed cache) and executed as one
//            fused binary
//
// Results and all deterministic statistics must agree between the
// three; the benchmark fails loudly if they do not, or if the fast
// configuration runs any element off a schedule. Output is both
// a human table and a machine-readable JSON record (positional argument
// overrides the path, default BENCH_engine.json) so successive PRs can
// track the perf trajectory; --n=N and --steps=T shrink the problem for
// CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/native_machine.hpp"
#include "spmd/jit.hpp"
#include "support/format.hpp"

namespace {

using namespace vcal;

spmd::Program relaxation_program(i64 procs, i64 n, i64 steps) {
  std::string src =
      cat("processors ", procs, ";\n", "array A[0:", n - 1, "];\n",
          "array B[0:", n - 1, "];\n", "distribute A block;\n",
          "distribute B block;\n", "forall i in 1:", n - 2,
          " do A[i] := (B[i-1] + B[i+1])/2; od\n");
  spmd::Program p = lang::compile(src);

  // Ping-pong: repeat the compiled clause with A and B swapped on odd
  // steps so every sweep consumes the previous sweep's output.
  prog::Clause even = std::get<prog::Clause>(p.steps[0]);
  prog::Clause odd = even;
  odd.lhs_array = "B";
  for (auto& r : odd.refs) r.array = "A";
  p.steps.clear();
  for (i64 t = 0; t < steps; ++t)
    p.steps.emplace_back(t % 2 == 0 ? even : odd);
  return p;
}

std::vector<double> input(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>((i * 13) % 101);
  return v;
}

struct RunResult {
  double wall_ms = 0.0;
  rt::DistStats stats;
  rt::PathCounters paths;
  std::vector<double> a, b;
  i64 cache_hits = 0;
  i64 cache_misses = 0;
};

RunResult run_engine(const spmd::Program& p, i64 n,
                     rt::EngineOptions engine) {
  rt::DistMachine m(p, {}, {}, engine);
  m.load("B", input(n));
  auto t0 = std::chrono::steady_clock::now();
  m.run();
  auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.stats = m.stats();
  r.paths = m.path_counters();
  r.a = m.gather("A");
  r.b = m.gather("B");
  r.cache_hits = m.plan_cache().hits();
  r.cache_misses = m.plan_cache().misses();
  return r;
}

struct NativeRun {
  double wall_ms = 0.0;
  bool native = false;
  std::vector<double> a, b;
  std::string error;
};

/// One NativeMachine execution (machines are single-shot, so warmup and
/// timed runs are separate machines; `ctx` carries the module registry
/// across them, so only the first ever compiles).
NativeRun run_native(const spmd::Program& p, i64 n,
                     const std::shared_ptr<rt::EngineContext>& ctx) {
  rt::NativeMachine m(p, {}, ctx);
  m.load("B", input(n));
  auto t0 = std::chrono::steady_clock::now();
  m.run();
  auto t1 = std::chrono::steady_clock::now();
  NativeRun r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.native = m.native();
  r.a = m.result("A");
  r.b = m.result("B");
  r.error = m.error();
  return r;
}

bool stats_equal(const rt::DistStats& x, const rt::DistStats& y) {
  return x.messages == y.messages && x.bulk_messages == y.bulk_messages &&
         x.local_reads == y.local_reads &&
         x.remote_reads == y.remote_reads &&
         x.iterations == y.iterations && x.tests == y.tests &&
         x.steps == y.steps && x.sim_time == y.sim_time;
}

}  // namespace

int main(int argc, char** argv) {
  i64 n = 4096;
  i64 steps = 200;
  const char* json_path = "BENCH_engine.json";
  for (int k = 1; k < argc; ++k) {
    if (std::strncmp(argv[k], "--n=", 4) == 0) {
      n = std::atoll(argv[k] + 4);
    } else if (std::strncmp(argv[k], "--steps=", 8) == 0) {
      steps = std::atoll(argv[k] + 8);
    } else {
      json_path = argv[k];
    }
  }
  if (n < 8 || steps < 2) {
    std::fprintf(stderr, "usage: %s [--n=N] [--steps=T] [out.json]\n",
                 argv[0]);
    return 1;
  }

  std::printf(
      "=== execution-engine throughput: relaxation, n=%lld, T=%lld ===\n",
      (long long)n, (long long)steps);
  std::printf("%6s %10s %10s %10s %9s %9s %12s %7s\n", "P", "fast-ms",
              "jit-ms", "native-ms", "jit-spd", "nat-spd", "iters/sec",
              "sched%");

  std::string json = "{\n  \"bench\": \"engine_throughput\",\n";
  json += cat("  \"n\": ", n, ",\n  \"steps\": ", steps,
              ",\n  \"configs\": [\n");

  bool ok = true;
  bool first = true;
  std::string jit_record;
  for (i64 procs : {4, 16, 64}) {
    spmd::Program p = relaxation_program(procs, n, steps);

    rt::EngineOptions fast;  // pool, cache, aggregation, kernels
    fast.jit = false;        // pure-bytecode baseline
    rt::EngineOptions jite = fast;
    jite.jit = true;
    jite.jit_sync = true;  // deterministic swap; warmup absorbs compiles

    RunResult f = run_engine(p, n, fast);
    run_engine(p, n, jite);  // warmup: compile into the .so cache
    RunResult j = run_engine(p, n, jite);
    auto native_ctx = std::make_shared<rt::EngineContext>();
    run_native(p, n, native_ctx);  // warmup: compile the driver module
    NativeRun nat = run_native(p, n, native_ctx);

    if (f.a != j.a || f.b != j.b || f.a != nat.a || f.b != nat.b) {
      std::printf("  !! RESULT MISMATCH at P=%lld\n", (long long)procs);
      ok = false;
    }
    if (!stats_equal(f.stats, j.stats)) {
      std::printf("  !! JIT STATS MISMATCH at P=%lld\n    fast: %s\n    "
                  "jit:  %s\n",
                  (long long)procs, f.stats.str().c_str(),
                  j.stats.str().c_str());
      ok = false;
    }
    // Steady state must actually dispatch native code (unless no host
    // compiler exists, in which case the jit row degrades to bytecode).
    const bool have_cc = vcal::spmd::jit_toolchain_available();
    if (have_cc && j.paths.jit == 0) {
      std::printf("  !! JIT PATH NOT EXERCISED at P=%lld (%s)\n",
                  (long long)procs, j.paths.str().c_str());
      ok = false;
    }
    // With a compiler present the native row must actually run the
    // compiled module, not the bytecode fallback.
    if (have_cc && !nat.native) {
      std::printf("  !! NATIVE BACKEND FELL BACK at P=%lld (%s)\n",
                  (long long)procs, nat.error.c_str());
      ok = false;
    }
    // The block relaxation runs clean: every clause execution, the
    // first at each layout included, runs its communication schedule,
    // so no element takes a per-element path.
    if (f.paths.sched == 0 || f.paths.generic != 0 || f.paths.fused != 0 ||
        f.paths.interp != 0) {
      std::printf("  !! SCHEDULE PATH NOT EXERCISED at P=%lld (%s)\n",
                  (long long)procs, f.paths.str().c_str());
      ok = false;
    }
    // Aggregation bound: per clause step at most P*(P-1) bulk messages,
    // independent of n.
    if (f.stats.bulk_messages > steps * procs * (procs - 1)) {
      std::printf("  !! BULK BOUND VIOLATED at P=%lld\n", (long long)procs);
      ok = false;
    }

    double jit_spd = j.wall_ms > 0.0 ? f.wall_ms / j.wall_ms : 0.0;
    double nat_spd = nat.wall_ms > 0.0 ? j.wall_ms / nat.wall_ms : 0.0;
    double nips = nat.wall_ms > 0.0
                      ? static_cast<double>(f.stats.iterations) /
                            (nat.wall_ms / 1000.0)
                      : 0.0;
    double ips = f.wall_ms > 0.0
                     ? static_cast<double>(f.stats.iterations) /
                           (f.wall_ms / 1000.0)
                     : 0.0;
    double jips = j.wall_ms > 0.0
                      ? static_cast<double>(j.stats.iterations) /
                            (j.wall_ms / 1000.0)
                      : 0.0;
    i64 total = f.paths.fused + f.paths.generic + f.paths.sched;
    double sched_pct =
        total > 0 ? 100.0 * static_cast<double>(f.paths.sched) /
                        static_cast<double>(total)
                  : 0.0;
    std::printf("%6lld %10.1f %10.1f %10.1f %8.2fx %8.2fx %12s %6.1f%%\n",
                (long long)procs, f.wall_ms, j.wall_ms, nat.wall_ms, jit_spd,
                nat_spd, with_commas((i64)ips).c_str(), sched_pct);

    if (procs == 4) {
      // The headline records: bytecode vs per-clause JIT vs the
      // whole-program native backend, all at the canonical shape.
      jit_record = cat("  \"jit\": {\"procs\": 4, \"have_compiler\": ",
                       have_cc ? "true" : "false",
                       ", \"bytecode_iters_per_sec\": ", ips,
                       ", \"jit_iters_per_sec\": ", jips,
                       ", \"speedup\": ", jit_spd,
                       ", \"jit_elements\": ", j.paths.jit, "},\n");
      jit_record += cat("  \"native\": {\"procs\": 4, \"ran_native\": ",
                        nat.native ? "true" : "false",
                        ", \"wall_ms\": ", nat.wall_ms,
                        ", \"native_iters_per_sec\": ", nips,
                        ", \"speedup_vs_jit\": ", nat_spd, "},\n");
    }

    if (!first) json += ",\n";
    first = false;
    json += cat("    {\"procs\": ", procs, ", \"wall_ms_fast\": ",
                f.wall_ms, ", \"wall_ms_jit\": ", j.wall_ms,
                ", \"wall_ms_native\": ", nat.wall_ms,
                ", \"jit_speedup\": ", jit_spd,
                ", \"native_speedup_vs_jit\": ", nat_spd,
                ", \"native_iters_per_sec\": ", nips,
                ", \"iters_per_sec\": ", ips,
                ", \"jit_iters_per_sec\": ", jips,
                ", \"messages\": ", f.stats.messages,
                ", \"bulk_messages\": ", f.stats.bulk_messages,
                ", \"plan_cache_hits\": ", f.cache_hits,
                ", \"plan_cache_misses\": ", f.cache_misses,
                ", \"fused\": ", f.paths.fused,
                ", \"generic\": ", f.paths.generic,
                ", \"jit_elements\": ", j.paths.jit,
                ", \"sim_time\": ", f.stats.sim_time, "}");
  }
  json += cat("\n  ],\n", jit_record,
              "  \"schema\": \"engine_throughput/v4\"\n}\n");

  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::printf("\n!! could not write %s\n", json_path);
    ok = false;
  }

  std::printf(
      "\nfast = pool + bulk aggregation + plan cache + compiled kernels "
      "(jit off);\njit = fast + per-clause native codegen, steady state "
      "after a warmup run\n(jit-spd isolates that layer); native = the "
      "whole emitted OpenMP C program\ncompiled and run as one binary "
      "(nat-spd = jit-ms / native-ms).\nResults are verified identical; "
      "only wall clock differs.\n"
      "Compare iters/sec across builds for engine-to-engine speedups.\n");
  return ok ? 0 : 1;
}
