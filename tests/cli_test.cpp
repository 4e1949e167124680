// End-to-end tests of the vcalc command-line driver: exit codes, targets,
// emitters, and error reporting. Paths are injected by CMake.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vcalc_flags.hpp"

namespace {

std::string vcalc() { return VCALC_PATH; }
std::string programs() { return EXAMPLES_DIR; }

// A fresh private directory per call. The earlier fixed names inside
// the shared ::testing::TempDir() ("cli_out.txt", "comm3.vexl", ...)
// collided when two cli_test processes ran concurrently — the classic
// intermittent failure where one test reads the file another is
// rewriting.
std::string unique_dir() {
  std::string tmpl = ::testing::TempDir() + "vcal-cli-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed under " << tmpl;
    return ::testing::TempDir();
  }
  return buf.data();
}

// One vcalc run. stdout and stderr are captured apart: results are
// compared on stdout alone, so a line a sanitizer runtime writes to
// stderr (LeakSanitizer's "Unable to get registers from thread") cannot
// fail a comparison between targets.
struct RunResult {
  int status;
  std::string out;  // stdout
  std::string err;  // stderr
  std::string text() const { return out + err; }
};

std::string slurp(const std::string& path) {
  std::ostringstream buf;
  buf << std::ifstream(path).rdbuf();
  ::unlink(path.c_str());
  return buf.str();
}

RunResult run(const std::string& args) {
  std::string dir = unique_dir();
  std::string out_file = dir + "/cli_out.txt";
  std::string err_file = dir + "/cli_err.txt";
  std::string cmd =
      vcalc() + " " + args + " > " + out_file + " 2> " + err_file;
  int status = std::system(cmd.c_str());
  RunResult r{WEXITSTATUS(status), slurp(out_file), slurp(err_file)};
  ::rmdir(dir.c_str());
  return r;
}

bool has(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// Text checks search both streams: diagnostics go to stderr, results to
// stdout.
bool has(const RunResult& r, const std::string& needle) {
  return has(r.out, needle) || has(r.err, needle);
}

TEST(Cli, RotateRunsAndPrints) {
  RunResult r = run("--init B --print A --stats " + programs() +
                    "/rotate.vexl");
  EXPECT_EQ(r.status, 0) << r.text();
  EXPECT_TRUE(has(r, "A = 6 7 8 9")) << r.text();
  EXPECT_TRUE(has(r, "stats:")) << r.text();
  EXPECT_TRUE(has(r, "tests=0")) << r.text();
}

TEST(Cli, TargetsAgree) {
  std::string base = "--init B --print A " + programs() + "/rotate.vexl";
  RunResult dist = run("--target=dist " + base);
  RunResult shared = run("--target=shared " + base);
  RunResult seq = run("--target=seq " + base);
  RunResult proc = run("--target=proc " + base);
  for (const RunResult* r : {&dist, &shared, &seq, &proc})
    EXPECT_EQ(r->status, 0) << r->text();
  EXPECT_EQ(dist.out, shared.out);
  EXPECT_EQ(dist.out, seq.out);
  EXPECT_EQ(dist.out, proc.out);
}

TEST(Cli, ProcTargetMatchesDistStatsAndExportsRankTraces) {
  // The multi-process backend through the CLI: same results and stats
  // line as the simulator, and --trace ships per-rank worker lanes back
  // into one Chrome JSON (no "engine" control lane — workers have
  // none).
  std::string base = "--init U --print U --stats " + programs() +
                     "/relax.vexl";
  RunResult dist = run("--target=dist " + base);
  RunResult proc = run("--target=proc " + base);
  EXPECT_EQ(proc.status, 0) << proc.text();
  auto arrays = [](const std::string& s) {
    return s.substr(0, s.find("paths:"));
  };
  EXPECT_EQ(arrays(dist.out), proc.out);

  std::string dir = unique_dir();
  std::string json = dir + "/proc_trace.json";
  RunResult traced = run("--target=proc --trace " + json + " --init U " +
                         programs() + "/relax.vexl");
  EXPECT_EQ(traced.status, 0) << traced.text();
  std::ostringstream buf;
  buf << std::ifstream(json).rdbuf();
  std::string trace = buf.str();
  EXPECT_TRUE(has(trace, "\"traceEvents\"")) << trace;
  EXPECT_TRUE(has(trace, "\"rank 0\"")) << trace;
  EXPECT_TRUE(has(trace, "\"rank 3\"")) << trace;
  EXPECT_TRUE(has(trace, "\"ph\":\"X\"")) << trace;
  EXPECT_FALSE(has(trace, "\"engine\"")) << trace;
}

TEST(Cli, VerifyProcAxisSmoke) {
  // A deliberately small budget: every corpus program additionally
  // forks 2 x P real worker processes.
  RunResult r = run("--verify --proc --iters 2 --seed 11");
  EXPECT_EQ(r.status, 0) << r.text();
  EXPECT_TRUE(has(r, "verify: OK")) << r.text();
}

TEST(Cli, NaiveMatchesOptimized) {
  std::string base = "--init U --print U " + programs() + "/relax.vexl";
  RunResult opt = run(base);
  RunResult naive = run("--naive " + base);
  EXPECT_EQ(opt.status, 0);
  EXPECT_EQ(naive.status, 0);
  EXPECT_EQ(opt.out, naive.out);
}

TEST(Cli, EmitModes) {
  std::string file = programs() + "/relax.vexl";
  RunResult trace = run("--emit=trace " + file);
  EXPECT_EQ(trace.status, 0);
  EXPECT_TRUE(has(trace, "(1) source")) << trace.text();
  EXPECT_TRUE(has(trace, "SPMD form"));

  RunResult omp = run("--emit=omp " + file);
  EXPECT_EQ(omp.status, 0);
  EXPECT_TRUE(has(omp, "#pragma omp parallel"));

  RunResult mpi = run("--emit=mpi " + file);
  EXPECT_EQ(mpi.status, 0);
  EXPECT_TRUE(has(mpi, "MPI_Init"));

  RunResult ir = run("--emit=ir " + file);
  EXPECT_EQ(ir.status, 0);
  EXPECT_TRUE(has(ir, "program on 4 processors"));
}

TEST(Cli, ViewsProgram) {
  RunResult r = run("--init M --print A --stats " + programs() +
                    "/views.vexl");
  EXPECT_EQ(r.status, 0) << r.text();
  EXPECT_TRUE(has(r, "A = 14 15 16 17")) << r.text();
}

TEST(Cli, VerifyCorpusAndFile) {
  // A small corpus run: conformance corpus plus the fault smoke.
  RunResult corpus = run("--verify --iters 5 --seed 7");
  EXPECT_EQ(corpus.status, 0) << corpus.text();
  EXPECT_TRUE(has(corpus, "verify: OK")) << corpus.text();
  EXPECT_TRUE(has(corpus, "verify faults: ok")) << corpus.text();

  // File mode checks one program through the whole matrix.
  RunResult file = run("--verify " + programs() + "/rotate.vexl");
  EXPECT_EQ(file.status, 0) << file.text();
  EXPECT_TRUE(has(file, "ok (")) << file.text();

  EXPECT_EQ(run("--verify --iters 0").status, 1);  // usage error
}

TEST(Cli, HelpListsEveryFlag) {
  // --help is rendered from the same table the parser validates
  // against (tools/vcalc_flags.hpp), so walking the table here proves
  // every accepted flag is documented — a new flag cannot land without
  // appearing in the help text.
  RunResult r = run("--help");
  EXPECT_EQ(r.status, 0) << r.text();
  int flags = 0;
  for (const vcalc_cli::FlagSection& sec : vcalc_cli::sections()) {
    EXPECT_TRUE(has(r, std::string(sec.title) + ":")) << sec.title;
    for (const vcalc_cli::FlagSpec& f : sec.flags) {
      EXPECT_TRUE(has(r, f.name)) << f.name << " missing from --help";
      ++flags;
    }
  }
  EXPECT_GE(flags, 30);  // the table actually has content

  // And the parser rejects what the table doesn't know.
  EXPECT_EQ(run("--definitely-not-a-flag").status, 1);
  EXPECT_EQ(run("--stats=1 x.vexl").status, 1);   // kNone given a value
  EXPECT_EQ(run("--target x.vexl").status, 1);    // kInline without '='
  EXPECT_EQ(run("--init").status, 1);             // kNext missing value
}

TEST(Cli, ServeRoundTripMatchesDirectAndShutsDown) {
  std::string dir = unique_dir();
  std::string out_file = dir + "/serve_out.txt";
  std::string cmd =
      vcalc() + " --serve auto > " + out_file + " 2>&1 &";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::string addr;
  for (int i = 0; i < 200 && addr.empty(); ++i) {
    ::usleep(50 * 1000);
    std::ostringstream buf;
    buf << std::ifstream(out_file).rdbuf();
    std::string text = buf.str();
    size_t pos = text.find("serving on ");
    size_t nl = text.find('\n', pos);
    if (pos != std::string::npos && nl != std::string::npos)
      addr = text.substr(pos + 11, nl - pos - 11);
  }
  ASSERT_FALSE(addr.empty()) << "server never announced its address";

  std::string base = "--init B --print A " + programs() + "/rotate.vexl";
  RunResult direct = run(base);
  RunResult served = run("--connect " + addr + " " + base);
  EXPECT_EQ(served.status, 0) << served.text();
  EXPECT_EQ(served.out, direct.out);

  RunResult metrics = run("--connect " + addr + " --remote-metrics");
  EXPECT_EQ(metrics.status, 0) << metrics.text();
  EXPECT_TRUE(has(metrics, "\"requests\":")) << metrics.text();

  EXPECT_EQ(run("--connect " + addr + " --remote-shutdown").status, 0);
  // The server exits and removes its socket; a late client fails fast.
  for (int i = 0; i < 100; ++i) {
    if (run("--connect " + addr + " --remote-metrics").status != 0) break;
    ::usleep(50 * 1000);
  }
  EXPECT_NE(run("--connect " + addr + " --remote-metrics").status, 0);
}

TEST(Cli, EngineFlagsDoNotChangeResults) {
  // No --stats here: the "paths:" tally legitimately moves between the
  // schedule and jit columns with these flags.
  std::string base = "--init B --print A " + programs() + "/rotate.vexl";
  RunResult plain = run(base);
  ASSERT_EQ(plain.status, 0) << plain.text();
  for (const char* flags : {"--threads 1", "--threads 4", "--no-jit",
                            "--jit-threshold 1 --jit-sync",
                            "--threads 1 --no-jit"}) {
    RunResult r = run(std::string(flags) + " " + base);
    EXPECT_EQ(r.status, 0) << flags << "\n" << r.text();
    EXPECT_EQ(r.out, plain.out) << flags;
  }
}

TEST(Cli, StatsReportCommSchedules) {
  EXPECT_TRUE(has(run("--init B --print A --stats " + programs() +
                      "/rotate.vexl"),
                  "comm: sched-builds="));

  // The same clause executed three times: the first execution builds
  // the schedule (dist inspects, shared records), the other two replay
  // it.
  std::string dir = unique_dir();
  std::string file = dir + "/comm3.vexl";
  {
    std::ofstream out(file);
    out << "processors 4;\narray A[0:19];\narray B[0:19];\n"
           "distribute A scatter;\ndistribute B block;\n";
    for (int k = 0; k < 3; ++k)
      out << "forall i in 0:19 do A[i] := B[(i + 6) mod 20]; od\n";
  }
  RunResult seq = run("--target=seq --init B --print A " + file);
  ASSERT_EQ(seq.status, 0) << seq.text();
  for (const char* target : {"--target=dist", "--target=shared"}) {
    RunResult on = run(std::string(target) + " --init B --print A --stats " +
                       file);
    EXPECT_EQ(on.status, 0) << on.text();
    EXPECT_TRUE(has(on, "sched-builds=1")) << target << "\n" << on.text();
    EXPECT_TRUE(has(on, "sched-hits=2")) << target << "\n" << on.text();

    // Replay is a speed path only: the printed array matches the
    // sequential machine's.
    EXPECT_EQ(on.out.substr(0, seq.out.size()), seq.out) << target;
  }
}

TEST(Cli, StatsReportJitAndCacheDirIsHonored) {
  // A repeated affine clause so the plan goes hot; --jit-sync makes the
  // counters deterministic (no background-compile races).
  std::string dir = unique_dir();
  std::string file = dir + "/jit4.vexl";
  std::string cache = dir + "/jit-cache";
  {
    std::ofstream out(file);
    out << "processors 4;\narray A[0:19];\narray B[0:19];\n"
           "distribute A block;\ndistribute B scatter;\n";
    for (int k = 0; k < 4; ++k)
      out << "forall i in 0:18 do A[i] := B[i + 1]*2 + 30; od\n";
  }
  std::string jit_flags =
      "--jit-threshold 1 --jit-sync --jit-cache-dir " + cache + " ";
  for (const char* target : {"--target=dist", "--target=shared"}) {
    RunResult on = run(std::string(target) + " " + jit_flags +
                       "--init B --print A --stats " + file);
    EXPECT_EQ(on.status, 0) << on.text();
    // First process builds, later processes hit the content-addressed
    // .so cache; either way the module dispatches.
    EXPECT_TRUE(has(on, "jit-builds=1") ||
                has(on, "jit-cache-hits=1"))
        << target << "\n" << on.text();
    EXPECT_FALSE(has(on, "jit-hits=0")) << target << "\n" << on.text();

    RunResult off = run(std::string(target) + " --no-jit " +
                        "--init B --print A --stats " + file);
    EXPECT_EQ(off.status, 0) << off.text();
    EXPECT_TRUE(has(off, "jit-builds=0")) << target << "\n" << off.text();
    EXPECT_TRUE(has(off, "jit-hits=0")) << target << "\n" << off.text();

    // Native dispatch is a speed path only.
    auto arrays = [](const std::string& s) {
      return s.substr(0, s.find("paths:"));
    };
    EXPECT_EQ(arrays(on.out), arrays(off.out)) << target;
  }

  // The requested cache dir holds the generated unit and shared object.
  EXPECT_EQ(std::system(("ls " + cache + "/vcal*.c >/dev/null 2>&1").c_str()),
            0);
  EXPECT_EQ(std::system(("ls " + cache + "/vcal*.so >/dev/null 2>&1").c_str()),
            0);

  EXPECT_EQ(run("--jit-threshold 0 " + file).status, 1);  // usage error
}

TEST(Cli, TraceWritesChromeJson) {
  std::string dir = unique_dir();
  std::string json = dir + "/trace_out.json";
  RunResult r = run("--trace " + json + " --init B --print A " +
                    programs() + "/rotate.vexl");
  EXPECT_EQ(r.status, 0) << r.text();
  EXPECT_TRUE(has(r, "A = 6 7 8 9")) << r.text();  // run unchanged
  std::ostringstream buf;
  buf << std::ifstream(json).rdbuf();
  std::string trace = buf.str();
  EXPECT_TRUE(has(trace, "\"traceEvents\"")) << trace;
  EXPECT_TRUE(has(trace, "\"rank 0\"")) << trace;
  EXPECT_TRUE(has(trace, "\"engine\"")) << trace;
  EXPECT_TRUE(has(trace, "\"ph\":\"X\"")) << trace;
}

TEST(Cli, TimelinePrintsLanes) {
  RunResult r = run("--timeline --init B " + programs() + "/rotate.vexl");
  EXPECT_EQ(r.status, 0) << r.text();
  EXPECT_TRUE(has(r, "== rank 0")) << r.text();
  EXPECT_TRUE(has(r, "== engine")) << r.text();
  EXPECT_TRUE(has(r, "clause")) << r.text();

  // Every target supports the trace exports.
  RunResult shared = run("--target=shared --timeline --init B " +
                         programs() + "/rotate.vexl");
  EXPECT_EQ(shared.status, 0) << shared.text();
  EXPECT_TRUE(has(shared, "== engine")) << shared.text();
  RunResult seq = run("--target=seq --timeline --init B " + programs() +
                      "/rotate.vexl");
  EXPECT_EQ(seq.status, 0) << seq.text();
  EXPECT_TRUE(has(seq, "== rank 0")) << seq.text();
}

TEST(Cli, CalibrateReportsFit) {
  RunResult r = run("--calibrate");
  EXPECT_EQ(r.status, 0) << r.text();
  EXPECT_TRUE(has(r, "calibration over")) << r.text();
  EXPECT_TRUE(has(r, "fitted ns:")) << r.text();
  EXPECT_TRUE(has(r, "relax")) << r.text();
  EXPECT_TRUE(has(r, "rotate")) << r.text();
  EXPECT_TRUE(has(r, "redistribute")) << r.text();
}

TEST(Cli, ErrorExitCodes) {
  EXPECT_EQ(run("").status, 1);                             // usage
  EXPECT_EQ(run("--target=bogus x.vexl").status, 1);        // bad file
  RunResult missing = run("/nonexistent/prog.vexl");
  EXPECT_EQ(missing.status, 1);

  // A compile error: write a broken program to a temp file.
  std::string dir = unique_dir();
  std::string bad = dir + "/bad.vexl";
  std::ofstream(bad) << "array A[0:9]\n";  // missing ';'
  RunResult r = run(bad);
  EXPECT_EQ(r.status, 2);
  EXPECT_TRUE(has(r, "vcalc:")) << r.text();

  // An execution fault: --init of an unknown array.
  std::string ok = dir + "/ok.vexl";
  std::ofstream(ok) << "array A[0:9]; forall i in 0:9 do A[i] := 1; od\n";
  RunResult fault = run("--init ZZZ " + ok);
  EXPECT_EQ(fault.status, 3);

  // A constant-zero subscript divisor is a compile error, not a fault.
  std::string zero = dir + "/zero.vexl";
  std::ofstream(zero)
      << "array A[0:9]; array B[0:9];\n"
         "forall i in 0:9 do A[i] := B[i mod 0]; od\n";
  RunResult z = run("--init B " + zero);
  EXPECT_EQ(z.status, 2) << z.text();
  EXPECT_TRUE(has(z, "by constant zero")) << z.text();

  // So is subscript arithmetic that overflows i64 over the loop range
  // (it used to fault at run time as an internal invariant).
  for (const char* sub :
       {"(i*4611686018427387904) mod 8", "(i + 9223372036854775807) mod 8"}) {
    std::string over = dir + "/over.vexl";
    std::ofstream(over) << "array A[0:7]; array B[0:7];\n"
                        << "forall i in 0:7 do A[i] := B[" << sub
                        << "]; od\n";
    for (const char* target : {"--target=dist", "--target=shared"}) {
      RunResult o = run(std::string(target) + " --init B " + over);
      EXPECT_EQ(o.status, 2) << sub << "\n" << o.text();
      EXPECT_TRUE(has(o, "of B overflows i64 for i in 0:7")) << o.text();
      EXPECT_FALSE(has(o, "internal invariant")) << o.text();
    }
  }
}

TEST(Cli, SubscriptErrorsAgreeAcrossTargets) {
  const std::string decls =
      "processors 4; array A[0:7]; array B[0:7]; distribute A block; "
      "distribute B scatter;\n";
  std::string dir = unique_dir();
  // A constant subscript outside the bounds is one positioned compile
  // error on every target (dist and shared used to fault at run time).
  std::string oob = dir + "/oob.vexl";
  std::ofstream(oob) << decls << "forall i in 0:7 do A[i] := B[-1]; od\n";
  for (const char* target : {"seq", "dist", "shared", "proc", "native"}) {
    RunResult r = run(std::string("--target=") + target + " --init B " + oob);
    EXPECT_EQ(r.status, 2) << target << "\n" << r.text();
    EXPECT_EQ(r.out, "") << target;
    EXPECT_TRUE(has(r.err,
                    "vcalc: constant subscript -1 of B dimension 0 is "
                    "outside its bounds 0:7 (at 2:30)\n"))
        << target << "\n" << r.err;
  }
  // A divisor that reaches zero over the loop range is one run-time
  // fault (it used to surface as an internal invariant).
  std::string zero = dir + "/zero.vexl";
  std::ofstream(zero) << decls
                      << "forall i in 0:7 do A[i] := B[i mod (i - 3)]; od\n";
  for (const char* target : {"seq", "dist", "shared", "proc"}) {
    RunResult r = run(std::string("--target=") + target + " --init B " + zero);
    EXPECT_EQ(r.status, 3) << target << "\n" << r.text();
    EXPECT_EQ(r.out, "") << target;
    EXPECT_TRUE(has(r.err, "vcalc: 'mod' by zero in a subscript\n"))
        << target << "\n" << r.err;
  }
}

TEST(Cli, RemovedEngineFlagsAreRejected) {
  // Plan caching, compiled kernels and communication schedules are
  // unconditional and message matching has one representation: their
  // old switches are usage errors now.
  std::string file = programs() + "/rotate.vexl";
  for (const char* flag : {"--no-plan-cache", "--keyed-channels",
                           "--no-compiled-kernels", "--no-comm-schedules"}) {
    RunResult r = run(std::string(flag) + " --init B " + file);
    EXPECT_EQ(r.status, 1) << flag << "\n" << r.text();
    EXPECT_EQ(vcalc_cli::find_flag(flag), nullptr) << flag;
  }
}

}  // namespace
