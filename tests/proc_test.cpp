// Tests for proc/: the multi-process distributed backend. The launcher
// spawns real `vcalc --rank N` worker processes (path injected by CMake
// as VCALC_PATH), so every test here is a genuine cross-process run:
// conformance against the DistMachine oracle, crash containment, stale
// channel-dir reclamation, option propagation, and the job wire format.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "proc/job.hpp"
#include "proc/proc_machine.hpp"
#include "proc/wire.hpp"
#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::proc {
namespace {

using rt::DistMachine;
using rt::DistStats;

std::string worker() { return VCALC_PATH; }

ProcOptions proc_opts() {
  ProcOptions p;
  p.worker_path = worker();
  p.timeout_ms = 30000;
  return p;
}

std::string rotate_source(int procs) {
  return cat("processors ", procs, ";\n",
             "array A[0:19];\narray B[0:19];\n",
             "distribute A block;\ndistribute B scatter;\n",
             "forall i in 0:19 do A[i] := B[(i + 6) mod 20]; od\n");
}

// Halo exchange (overlap), a mid-program redistribution, and a second
// clause against the moved layout — every wire-frame kind in one run.
std::string halo_redist_source(int procs) {
  return cat("processors ", procs, ";\n",
             "array U[0:31];\narray V[0:31];\n",
             "distribute U block overlap(1);\ndistribute V block;\n",
             "forall i in 1:30 do V[i] := (U[i-1] + U[i+1])/2; od\n",
             "redistribute V scatter;\n",
             "forall i in 1:30 do U[i] := (V[i-1] + V[i+1])/2; od\n");
}

std::vector<double> ramp(std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<double>(i) * scale;
  return v;
}

std::string counters_str(const rt::RankCounters& c) {
  return cat(c.sends, ",", c.receives, ",", c.iterations, ",", c.tests, ",",
             c.local_reads, ",", c.remote_reads, ",", c.bulk_sends, ",",
             c.bulk_receives, ",", c.halo_bulk, ",", c.halo_values, ",",
             c.halo_reads);
}

/// Runs `source` on both machines with the same inputs and engine
/// options and asserts every observable is bit-identical.
void expect_parity(const std::string& source,
                   const std::vector<std::pair<std::string,
                                               std::vector<double>>>& inputs,
                   const std::vector<std::string>& outputs,
                   rt::EngineOptions engine = {}) {
  engine.jit = false;
  DistMachine sim(lang::compile(source), {}, {}, engine);
  ProcMachine real(source, {}, {}, engine, proc_opts());
  for (const auto& [name, data] : inputs) {
    sim.load(name, data);
    real.load(name, data);
  }
  sim.run();
  real.run();
  for (const std::string& name : outputs)
    EXPECT_EQ(real.gather(name), sim.gather(name)) << name;
  EXPECT_EQ(real.stats().str(), sim.stats().str());
  EXPECT_EQ(real.stats().sim_time, sim.stats().sim_time);
  EXPECT_EQ(real.message_matrix(), sim.message_matrix());
  EXPECT_EQ(real.message_matrix_str(), sim.message_matrix_str());
  ASSERT_EQ(real.last_step_counters().size(),
            sim.last_step_counters().size());
  for (std::size_t p = 0; p < sim.last_step_counters().size(); ++p)
    EXPECT_EQ(counters_str(real.last_step_counters()[p]),
              counters_str(sim.last_step_counters()[p]))
        << "rank " << p;
}

// ---------------------------------------------------------------------
// Conformance against the simulator oracle

TEST(ProcMachine, ParityAcrossProcessCounts) {
  for (int procs : {1, 2, 4}) {
    SCOPED_TRACE(cat("procs ", procs));
    expect_parity(rotate_source(procs), {{"B", ramp(20, 0.5)}}, {"A", "B"});
  }
}

TEST(ProcMachine, HaloAndRedistributeParity) {
  for (int procs : {2, 4}) {
    SCOPED_TRACE(cat("procs ", procs));
    expect_parity(halo_redist_source(procs), {{"U", ramp(32)}},
                  {"U", "V"});
  }
}

// The worker's redistribution mover against the simulator's on every
// ordered pair of layouts: ragged blocks with a nonzero base, idle
// ranks, and 2-D grids with and without an undistributed dimension.
// Each pair (a, b) is reached as "redistribute X a; redistribute X b;".
TEST(ProcMachine, RedistributionOnEveryLayoutPairParity) {
  const std::vector<std::string> one_d = {"block", "scatter",
                                          "blockscatter(3)",
                                          "blockscatter(2)"};
  const std::vector<std::string> two_d = {
      "(block, scatter)", "(scatter, block)", "(blockscatter(2), block)",
      "(block, *)", "(*, blockscatter(2))"};
  std::string src =
      "processors 4;\narray A[3:15];\narray E[-2:2];\narray M[-1:5, 2:10];\n"
      "distribute A block;\ndistribute E block;\n"
      "distribute M (block, scatter);\n";
  auto chain = [&](const std::string& name,
                   const std::vector<std::string>& specs) {
    for (const std::string& a : specs)
      for (const std::string& b : specs)
        if (a != b)
          src += cat("redistribute ", name, " ", a, ";\nredistribute ", name,
                     " ", b, ";\n");
  };
  chain("A", one_d);
  chain("E", one_d);
  chain("M", two_d);
  expect_parity(src, {{"A", ramp(13, 0.5)}, {"E", ramp(5, 2.0)},
                      {"M", ramp(63, 0.25)}},
                {"A", "E", "M"});
}

// Load, a clause and gather over the layouts a 1-D block or scatter
// array never exercises: a 2-D (block, scatter) grid with ragged local
// shapes, blocks dealt cyclically, and a full copy on every rank.
TEST(ProcMachine, GridBlockScatterAndReplicatedParity) {
  for (int procs : {2, 4}) {
    SCOPED_TRACE(cat("procs ", procs));
    const std::string src = cat(
        "processors ", procs, ";\n",
        "array M[0:5, 0:6];\narray S[0:22];\narray R[0:9];\n",
        "distribute M (block, scatter);\n",
        "distribute S blockscatter(3);\n",
        "distribute R replicated;\n",
        "forall i in 0:5, j in 0:6 do\n",
        "  M[i, j] := M[i, j] + S[3*j + 1] * R[i];\n",
        "od\n",
        "forall i in 0:22 do S[i] := S[i] + R[i mod 10]; od\n",
        "forall i in 0:5 do R[i] := M[i, 6 - i]; od\n");
    expect_parity(src,
                  {{"M", ramp(42, 0.25)}, {"S", ramp(23)}, {"R", ramp(10, 2)}},
                  {"M", "S", "R"});
  }
}

TEST(ProcMachine, EngineKnobsStayBitIdentical) {
  // Assorted knobs: a pool the workers never use (each runs its own
  // rank) and tracing must not change any observable.
  rt::EngineOptions assorted;
  assorted.threads = 3;
  assorted.trace = true;
  expect_parity(halo_redist_source(4), {{"U", ramp(32)}}, {"U", "V"},
                assorted);
}

TEST(ProcMachine, WorkerRunsTheSimulatorsScheduledPath) {
  // Steps 0 and 2 are clauses, step 1 a redistribute. The worker takes
  // DistMachine's dispatch: at each clause step's first execution at a
  // layout it inspects every rank (one inspect span per rank on its
  // lane), then packs and gathers — the one path a clause step has.
  const std::string source = halo_redist_source(4);
  rt::EngineOptions engine;
  engine.trace = true;
  engine.jit = false;
  expect_parity(source, {{"U", ramp(32)}}, {"U", "V"}, engine);
  ProcMachine real(source, {}, {}, engine, proc_opts());
  real.load("U", ramp(32));
  real.run();
  ASSERT_EQ(real.rank_traces().size(), 4u);
  for (std::size_t p = 0; p < 4; ++p)
    for (i64 step : {0, 2}) {
      SCOPED_TRACE(cat("rank ", p, " step ", step));
      i64 inspect = 0, pack = 0, gather = 0;
      for (const obs::TraceEvent& e : real.rank_traces()[p].events) {
        if (e.step != step) continue;
        inspect += e.kind == obs::EventKind::InspectBegin ? 1 : 0;
        pack += e.kind == obs::EventKind::PackBegin ? 1 : 0;
        gather += e.kind == obs::EventKind::GatherBegin ? 1 : 0;
      }
      EXPECT_EQ(inspect, 4);
      EXPECT_EQ(pack, 1);
      EXPECT_EQ(gather, 1);
    }
}

TEST(ProcMachine, TraceLanesComeBackFromEveryRank) {
  rt::EngineOptions engine;
  engine.trace = true;
  engine.jit = false;
  ProcMachine m(rotate_source(4), {}, {}, engine, proc_opts());
  m.load("B", ramp(20));
  m.run();
  ASSERT_EQ(m.rank_traces().size(), 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(m.rank_traces()[p].events.empty()) << "rank " << p;
    EXPECT_EQ(m.rank_traces()[p].dropped, 0) << "rank " << p;
  }
  // Without the knob nothing is recorded or shipped.
  ProcMachine quiet(rotate_source(4), {}, {}, {}, proc_opts());
  quiet.load("B", ramp(20));
  quiet.run();
  EXPECT_TRUE(quiet.rank_traces().empty());
}

TEST(ProcMachine, RunIsOneShotAndLoadValidates) {
  ProcMachine m(rotate_source(2), {}, {}, {}, proc_opts());
  EXPECT_THROW(m.load("ZZZ", ramp(20)), Error);
  EXPECT_THROW(m.load("B", ramp(3)), Error);
  m.load("B", ramp(20));
  m.run();
  EXPECT_THROW(m.run(), Error);
}

// ---------------------------------------------------------------------
// Crash containment

TEST(ProcMachine, KilledRankIsNamedWithinTimeout) {
  // The worker's test hook: rank 1 raises SIGKILL at the start of step
  // 0 — the hard variant of `kill -9` racing the protocol. The launcher
  // must fail fast, naming the dead rank, not hang until timeout.
  ::setenv("VCAL_PROC_TEST_CRASH_RANK", "1", 1);
  ProcOptions p = proc_opts();
  p.timeout_ms = 60000;  // only the reaper may trigger, never the deadline
  ProcMachine m(rotate_source(4), {}, {}, {}, p);
  m.load("B", ramp(20));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    m.run();
    ::unsetenv("VCAL_PROC_TEST_CRASH_RANK");
    FAIL() << "a SIGKILLed rank did not fail the run";
  } catch (const RuntimeFault& e) {
    std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "rank 1 died unexpectedly")) << msg;
    EXPECT_TRUE(contains(msg, "killed by signal 9")) << msg;
    EXPECT_TRUE(contains(msg, "last control-plane message")) << msg;
  }
  ::unsetenv("VCAL_PROC_TEST_CRASH_RANK");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10)
      << "crash diagnosis took too long";
}

TEST(ProcMachine, WholeRunDeadlineFires) {
  // A worker that wedges without ever reaching the control plane (a
  // sleeping stub stands in for a hung binary): the run deadline is the
  // backstop, and its diagnostic lists who never finished.
  std::string stub = ::testing::TempDir() + "/vcal-proc-wedge.sh";
  // exec, not a child: the launcher SIGKILLs the worker pid, and an
  // orphaned grandchild would hold the test harness's output pipe open.
  std::ofstream(stub) << "#!/bin/sh\nexec sleep 60\n";
  ASSERT_EQ(::chmod(stub.c_str(), 0755), 0);
  ProcOptions p = proc_opts();
  p.worker_path = stub;
  p.timeout_ms = 1500;
  ProcMachine m(rotate_source(2), {}, {}, {}, p);
  m.load("B", ramp(20));
  try {
    m.run();
    FAIL() << "the run deadline never fired";
  } catch (const RuntimeFault& e) {
    EXPECT_TRUE(contains(e.what(), "timed out after 1500 ms")) << e.what();
    EXPECT_TRUE(contains(e.what(), "unfinished ranks")) << e.what();
    EXPECT_TRUE(contains(e.what(), "rank 0")) << e.what();
    EXPECT_TRUE(contains(e.what(), "(none)")) << e.what();
  }
  ::unlink(stub.c_str());
}

// ---------------------------------------------------------------------
// Channel directory lifecycle

TEST(ProcMachine, StaleChannelDirIsReclaimed) {
  std::string dir = ::testing::TempDir() + "/vcal-proc-stale-XXXXXX";
  std::vector<char> buf(dir.begin(), dir.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  dir = buf.data();

  // A lock naming a dead pid plus leftover rings: stale state from a
  // crashed run, wiped and reused.
  pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
  {
    FILE* f = std::fopen((dir + "/lock.pid").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%lld\n", static_cast<long long>(dead));
    std::fclose(f);
  }
  std::fclose(std::fopen((dir + "/ring-0-1").c_str(), "w"));

  ProcOptions p = proc_opts();
  p.channel_dir = dir;
  ProcMachine m(rotate_source(2), {}, {}, {}, p);
  m.load("B", ramp(20));
  m.run();
  DistMachine sim(lang::compile(rotate_source(2)));
  sim.load("B", ramp(20));
  sim.run();
  EXPECT_EQ(m.gather("A"), sim.gather("A"));
  EXPECT_EQ(m.channel_dir(), dir);
  ::rmdir(dir.c_str());
}

TEST(ProcMachine, LiveChannelDirIsRefused) {
  std::string dir = ::testing::TempDir() + "/vcal-proc-live-XXXXXX";
  std::vector<char> buf(dir.begin(), dir.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  dir = buf.data();
  {
    // Our parent (the test runner) is alive for the whole test.
    FILE* f = std::fopen((dir + "/lock.pid").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%lld\n", static_cast<long long>(::getppid()));
    std::fclose(f);
  }
  ProcOptions p = proc_opts();
  p.channel_dir = dir;
  ProcMachine m(rotate_source(2), {}, {}, {}, p);
  m.load("B", ramp(20));
  try {
    m.run();
    FAIL() << "a channel dir locked by a live pid was not refused";
  } catch (const RuntimeFault& e) {
    EXPECT_TRUE(contains(e.what(), "is in use by pid")) << e.what();
  }
  ::unlink((dir + "/lock.pid").c_str());
  ::rmdir(dir.c_str());
}

TEST(ProcMachine, MissingChannelDirIsCreated) {
  std::string parent = ::testing::TempDir() + "/vcal-proc-mk-XXXXXX";
  std::vector<char> buf(parent.begin(), parent.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  parent = buf.data();
  std::string dir = parent + "/fresh";

  ProcOptions p = proc_opts();
  p.channel_dir = dir;
  {
    ProcMachine m(rotate_source(2), {}, {}, {}, p);
    m.load("B", ramp(20));
    m.run();
    EXPECT_EQ(m.channel_dir(), dir);
  }
  // A caller-named directory outlives the run (only its contents are
  // cleaned); an auto-mkdtemp one would have been removed.
  struct stat st{};
  EXPECT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  ::rmdir(dir.c_str());
  ::rmdir(parent.c_str());
}

// ---------------------------------------------------------------------
// Job wire format and worker resolution

TEST(ProcWire, EmptyArrayRoundTrips) {
  // An empty vector's data() may be null: neither side may hand it to
  // memcpy (undefined behaviour even for zero bytes).
  WireWriter w;
  w.put_f64s({});
  w.put_str("");
  w.put_f64s({1.5});
  WireReader r(w.bytes.data(), w.bytes.size());
  EXPECT_TRUE(r.get_f64s().empty());
  EXPECT_EQ(r.get_str(), "");
  EXPECT_EQ(r.get_f64s(), std::vector<double>{1.5});
  EXPECT_TRUE(r.done());
}

TEST(ProcJob, RoundTripsEveryField) {
  JobSpec job;
  job.source = rotate_source(4);
  job.procs = 4;
  job.build.bs_form = gen::BuildOptions::BsForm::RepeatedScatter;
  job.build.allow_enumerate_k = false;
  job.build.force_runtime_resolution = true;
  job.build.max_pieces = 17;
  job.engine.threads = 5;
  job.engine.trace = true;
  job.engine.trace_capacity = 999;
  job.engine.jit = true;
  job.engine.jit_threshold = 7;
  job.engine.jit_sync = true;
  job.engine.jit_cache_dir = "/some/cache";
  job.inputs.emplace_back("B", ramp(20, 0.25));
  job.timeout_ms = 1234;
  job.ring_slots = 256;

  std::vector<std::uint8_t> bytes = encode_job(job);
  JobSpec back = decode_job(bytes.data(), bytes.size());
  EXPECT_EQ(encode_job(back), bytes);  // lossless round trip
  EXPECT_EQ(back.source, job.source);
  EXPECT_EQ(back.procs, 4);
  EXPECT_EQ(back.engine.threads, 5);
  EXPECT_EQ(back.engine.jit_cache_dir, "/some/cache");
  ASSERT_EQ(back.inputs.size(), 1u);
  EXPECT_EQ(back.inputs[0].second, ramp(20, 0.25));
  EXPECT_EQ(back.timeout_ms, 1234);
  EXPECT_EQ(back.ring_slots, 256);
}

TEST(ProcJob, CorruptInputCountFailsFastWithoutAllocating) {
  // A job whose input count claims 2^28 entries: the decoder must reject
  // it against the bytes actually present instead of sizing the input
  // table from the count first.
  JobSpec job;
  job.source = rotate_source(2);
  job.procs = 2;
  std::vector<std::uint8_t> bytes = encode_job(job);
  // The job ends: u32 input count, i64 timeout, i64 ring slots.
  const std::uint32_t huge = 0x10000000;
  std::memcpy(bytes.data() + bytes.size() - 20, &huge, sizeof huge);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    decode_job(bytes.data(), bytes.size());
    FAIL() << "a corrupt input count decoded";
  } catch (const std::bad_alloc&) {
    FAIL() << "the input count was trusted before the bytes were checked";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("proc wire: truncated payload"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            100);
}

TEST(ProcJob, OptionsEchoPinsEveryPropagatedField) {
  // The worker echoes its decoded options back in HELLO and the
  // launcher byte-compares; this test pins that the echo actually
  // covers every field, so silent propagation drift is impossible.
  JobSpec base;
  base.source = rotate_source(2);
  base.procs = 2;
  const std::vector<std::uint8_t> ref = encode_options_echo(base);
  std::vector<std::pair<const char*, JobSpec>> mutants;
  auto mutate = [&](const char* what, auto&& fn) {
    JobSpec j = base;
    fn(j);
    mutants.emplace_back(what, std::move(j));
  };
  mutate("bs_form", [](JobSpec& j) {
    j.build.bs_form = gen::BuildOptions::BsForm::RepeatedScatter;
  });
  mutate("allow_enumerate_k",
         [](JobSpec& j) { j.build.allow_enumerate_k ^= true; });
  mutate("force_runtime_resolution",
         [](JobSpec& j) { j.build.force_runtime_resolution ^= true; });
  mutate("max_pieces", [](JobSpec& j) { j.build.max_pieces += 1; });
  mutate("threads", [](JobSpec& j) { j.engine.threads += 1; });
  mutate("trace", [](JobSpec& j) { j.engine.trace ^= true; });
  mutate("trace_capacity",
         [](JobSpec& j) { j.engine.trace_capacity += 1; });
  mutate("jit", [](JobSpec& j) { j.engine.jit ^= true; });
  mutate("jit_threshold", [](JobSpec& j) { j.engine.jit_threshold += 1; });
  mutate("jit_sync", [](JobSpec& j) { j.engine.jit_sync ^= true; });
  mutate("jit_cache_dir",
         [](JobSpec& j) { j.engine.jit_cache_dir += "x"; });
  for (const auto& [what, j] : mutants)
    EXPECT_NE(encode_options_echo(j), ref)
        << what << " is not covered by the options echo";
}

TEST(ProcMachine, WorkerResolutionPrecedence) {
  EXPECT_EQ(ProcMachine::resolve_worker("/explicit/path"), "/explicit/path");
  ::setenv("VCAL_WORKER_BIN", "/from/env", 1);
  EXPECT_EQ(ProcMachine::resolve_worker(""), "/from/env");
  EXPECT_EQ(ProcMachine::resolve_worker("/explicit/path"), "/explicit/path");
  ::unsetenv("VCAL_WORKER_BIN");
  // Fallback: this very executable.
  char self[4096];
  ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  ASSERT_GT(n, 0);
  self[n] = '\0';
  EXPECT_EQ(ProcMachine::resolve_worker(""), std::string(self));
}

}  // namespace
}  // namespace vcal::proc
