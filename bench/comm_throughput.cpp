// Communication-schedule throughput: the paper's Section 3.3 rotate (a
// scatter-distributed source feeding a block-distributed target, so
// nearly every read crosses ranks), run for T=200 ping-pong steps at
// P in {4, 16, 64}.
//
//   even step:  A[i] := B[(i + 7) mod n]
//   odd step:   B[i] := A[(i + 7) mod n]
//
// Two engine configurations execute the identical program:
//
//   sched  — the default engine: the inspector compiles each clause's
//            message pattern into a communication schedule on its second
//            execution, and every later step packs positionally into
//            reused buffers and consumes by recorded offset (O(m) per
//            step, allocation-free)
//   tagged — identical engine with comm_schedules off: every step pays
//            the tag-sort/binary-search matching protocol (O(m log m))
//
// Results, statistics, and message matrices must agree between the two;
// the benchmark fails loudly if they do not, or if the sched
// configuration fails to actually replay schedules. Output is a human
// table plus machine-readable JSON (positional argument overrides the
// path, default BENCH_comm.json) recording messages/sec and per-value
// pack/unpack cost; --n=N and --steps=T shrink the problem for CI smoke
// runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "support/format.hpp"

namespace {

using namespace vcal;

spmd::Program rotate_program(i64 procs, i64 n, i64 steps) {
  std::string src =
      cat("processors ", procs, ";\n", "array A[0:", n - 1, "];\n",
          "array B[0:", n - 1, "];\n", "distribute A block;\n",
          "distribute B scatter;\n", "forall i in 0:", n - 1,
          " do A[i] := B[(i + 7) mod ", n, "]; od\n");
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
    v[static_cast<std::size_t>(i)] = static_cast<double>((i * 17) % 103);
  return v;
}

struct RunResult {
  double wall_ms = 0.0;
  rt::DistStats stats;
  rt::PathCounters paths;
  rt::CommStats comm;
  std::vector<double> a, b;
  std::vector<std::vector<i64>> matrix;
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
  r.comm = m.comm_stats();
  r.a = m.gather("A");
  r.b = m.gather("B");
  r.matrix = m.message_matrix();
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
  const char* json_path = "BENCH_comm.json";
  for (int k = 1; k < argc; ++k) {
    if (std::strncmp(argv[k], "--n=", 4) == 0) {
      n = std::atoll(argv[k] + 4);
    } else if (std::strncmp(argv[k], "--steps=", 8) == 0) {
      steps = std::atoll(argv[k] + 8);
    } else {
      json_path = argv[k];
    }
  }
  if (n < 8 || steps < 6) {
    std::fprintf(stderr, "usage: %s [--n=N] [--steps=T] [out.json]\n",
                 argv[0]);
    return 1;
  }

  std::printf(
      "=== communication throughput: rotate, n=%lld, T=%lld ===\n",
      (long long)n, (long long)steps);
  std::printf("%6s %10s %10s %9s %14s %11s %9s\n", "P", "sched-ms",
              "tagged-ms", "speedup", "msgs/sec", "pack-ns/val",
              "sched-hit");

  std::string json = "{\n  \"bench\": \"comm_throughput\",\n";
  json += cat("  \"n\": ", n, ",\n  \"steps\": ", steps,
              ",\n  \"configs\": [\n");

  bool ok = true;
  bool first = true;
  for (i64 procs : {4, 16, 64}) {
    spmd::Program p = rotate_program(procs, n, steps);

    rt::EngineOptions sched;  // defaults: schedules compiled and replayed
    rt::EngineOptions tagged = sched;
    tagged.comm_schedules = false;

    RunResult s = run_engine(p, n, sched);
    RunResult t = run_engine(p, n, tagged);

    if (s.a != t.a || s.b != t.b) {
      std::printf("  !! RESULT MISMATCH at P=%lld\n", (long long)procs);
      ok = false;
    }
    if (!stats_equal(s.stats, t.stats) || s.matrix != t.matrix) {
      std::printf(
          "  !! STATS MISMATCH at P=%lld\n    sched:  %s\n    tagged: %s\n",
          (long long)procs, s.stats.str().c_str(), t.stats.str().c_str());
      ok = false;
    }
    // Two alternating clauses: each records its schedule on its first
    // execution and replays every one after that.
    if (s.comm.sched_builds != 2 || s.comm.sched_hits != steps - 2 ||
        s.paths.sched == 0) {
      std::printf("  !! SCHEDULES NOT REPLAYED at P=%lld (%s)\n",
                  (long long)procs, s.comm.str().c_str());
      ok = false;
    }
    if (t.comm.sched_hits != 0 || t.paths.sched != 0) {
      std::printf("  !! TAGGED CONFIG REPLAYED SCHEDULES at P=%lld\n",
                  (long long)procs);
      ok = false;
    }

    double speedup = s.wall_ms > 0.0 ? t.wall_ms / s.wall_ms : 0.0;
    double mps = s.wall_ms > 0.0
                     ? static_cast<double>(s.stats.messages) /
                           (s.wall_ms / 1000.0)
                     : 0.0;
    i64 moved = s.comm.packed_values + s.comm.unpacked_values;
    double pack_ns =
        moved > 0 ? s.wall_ms * 1e6 / static_cast<double>(moved) : 0.0;
    std::printf("%6lld %10.1f %10.1f %8.2fx %14s %11.1f %9lld\n",
                (long long)procs, s.wall_ms, t.wall_ms, speedup,
                with_commas((i64)mps).c_str(), pack_ns,
                (long long)s.comm.sched_hits);

    if (!first) json += ",\n";
    first = false;
    json += cat("    {\"procs\": ", procs, ", \"wall_ms_sched\": ",
                s.wall_ms, ", \"wall_ms_tagged\": ", t.wall_ms,
                ", \"speedup\": ", speedup, ", \"msgs_per_sec\": ", mps,
                ", \"pack_unpack_ns\": ", pack_ns,
                ", \"messages\": ", s.stats.messages,
                ", \"sched_builds\": ", s.comm.sched_builds,
                ", \"sched_hits\": ", s.comm.sched_hits,
                ", \"packed_values\": ", s.comm.packed_values,
                ", \"unpacked_values\": ", s.comm.unpacked_values, "}");
  }
  json += "\n  ]\n}\n";

  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::printf("\n!! could not write %s\n", json_path);
    ok = false;
  }

  std::printf(
      "\nsched = inspector/executor communication schedules (default);\n"
      "tagged = per-step tag matching. Results, counters, and message\n"
      "matrices are verified identical; only wall clock differs. The\n"
      "speedup column is the steady-state receive-path win (O(m log m)\n"
      "tag matching vs O(m) positional replay).\n");
  return ok ? 0 : 1;
}
