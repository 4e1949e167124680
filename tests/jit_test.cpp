// Tests for JIT native code generation (src/spmd/jit): source emission
// and content addressing, bit-identical dispatch on both machines (the
// fused loop and the segmentized schedule replay), every failure path
// falling back to the bytecode kernel, and one JIT state per layout
// across a redistribution.
//
// Failure-path tests use clauses with unique constants: the dlopen
// module registry is per-EngineContext but the .so cache directory is
// content-addressed and shared across processes, so a clause another
// test already compiled could be served from disk before the injected
// failure could trigger.
//
// Failure injection goes through an explicit EngineContext (the hooks
// live on its JitEngine), which doubles as the test of the context
// plumbing itself: a hook set on one context must only perturb machines
// constructed against that context.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/engine_context.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "spmd/jit.hpp"
#include "support/format.hpp"

namespace vcal::rt {
namespace {

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.25 + 1.0;
  return v;
}

/// Fresh cache directory per test: the content-addressed .so cache is
/// shared across processes, so tests pin build/cache-hit counts against
/// a directory they own.
std::string temp_cache_dir() {
  char tmpl[] = "/tmp/vcal-jit-test-XXXXXX";
  const char* d = ::mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d ? d : "/tmp";
}

/// Communicating clause with affine subscripts (block LHS vs scatter
/// RHS: dense all-to-all traffic), tagged with a unique constant so
/// each test owns its fingerprint.
std::string comm_src(int reps, int tag, bool redistribute_middle = false) {
  std::string s =
      "processors 4;\n"
      "array A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n";
  for (int k = 0; k < reps; ++k) {
    if (redistribute_middle && k == reps / 2)
      s += "redistribute B block;\n";
    s += "forall i in 0:30 do A[i] := B[i + 1]*2 + " + std::to_string(tag) +
         "; od\n";
  }
  return s;
}

/// Guarded self-read stencil: interiors become fused replay segments,
/// the guard and copy-in snapshot both stay live under the JIT.
std::string stencil_src(int reps, int tag) {
  std::string s =
      "processors 4;\n"
      "array A[0:63];\ndistribute A block;\n";
  for (int k = 0; k < reps; ++k)
    s += "forall i in 1:62 | i < " + std::to_string(tag) +
         " do A[i] := (A[i-1] + A[i+1])/2; od\n";
  return s;
}

/// block overlap(1) ping-pong: every rank reads halo operands at its
/// block edges, so replay mixes fused interiors with halo gathers.
std::string halo_src(int reps, int tag) {
  std::string s =
      "processors 4;\n"
      "array A[0:63];\ndistribute A block overlap(1);\n"
      "array B[0:63];\ndistribute B block overlap(1);\n";
  const std::string c = std::to_string(tag);
  for (int k = 0; k < reps; ++k)
    s += k % 2 == 0
             ? "forall i in 1:62 do A[i] := (B[i-1] + B[i+1])/2 + " + c +
                   "; od\n"
             : "forall i in 1:62 do B[i] := (A[i-1] + A[i+1])/2 + " + c +
                   "; od\n";
  return s;
}

/// Halo wider than the block (3 > 2): one rank's halo spans two owners
/// and every operand is a halo read.
std::string wide_halo_src(int reps, int tag) {
  std::string s =
      "processors 4;\n"
      "array A[0:7];\ndistribute A block;\n"
      "array B[0:7];\ndistribute B block overlap(3);\n";
  for (int k = 0; k < reps; ++k)
    s += "forall i in 0:4 do A[i] := B[i+3]*2 + " + std::to_string(tag) +
         "; od\n";
  return s;
}

/// Self-reference through the halo: halo rows must carry the copy-in
/// snapshot, not values the clause already overwrote.
std::string self_halo_src(int reps, int tag) {
  std::string s =
      "processors 4;\n"
      "array A[0:15];\ndistribute A block overlap(1);\n";
  for (int k = 0; k < reps; ++k)
    s += "forall i in 0:14 do A[i] := A[i+1] + " + std::to_string(tag) +
         "; od\n";
  return s;
}

struct DistRun {
  std::vector<double> a;
  DistStats stats;
  std::vector<std::vector<i64>> matrix;
  PathCounters paths;
  spmd::JitStats jit;
};

DistRun run_dist(const std::string& src, EngineOptions e,
                 const std::string& load = "B",
                 std::shared_ptr<EngineContext> ctx = nullptr) {
  spmd::Program program = lang::compile(src);
  DistMachine m(program, {}, {}, e, std::move(ctx));
  m.load(load, ramp(program.arrays.at(load).total()));
  m.run();
  return {m.gather("A"), m.stats(), m.message_matrix(), m.path_counters(),
          m.jit_stats()};
}

struct SharedRun {
  std::vector<double> a;
  SharedStats stats;
  PathCounters paths;
  spmd::JitStats jit;
};

SharedRun run_shared(const std::string& src, EngineOptions e,
                     const std::string& load = "B") {
  spmd::Program program = lang::compile(src);
  SharedMachine m(program, {}, {}, /*elide_barriers=*/false, e);
  m.load(load, ramp(program.arrays.at(load).total()));
  m.run();
  return {m.result("A"), m.stats(), m.path_counters(), m.jit_stats()};
}

EngineOptions jit_on(const std::string& cache, int threshold = 1) {
  EngineOptions e;
  e.jit = true;
  e.jit_sync = true;  // deterministic swap timing for the tests
  e.jit_threshold = threshold;
  e.jit_cache_dir = cache;
  return e;
}

EngineOptions jit_off() {
  EngineOptions e;
  e.jit = false;
  return e;
}

void expect_same_dist(const DistRun& x, const DistRun& y) {
  EXPECT_EQ(x.a, y.a);
  EXPECT_EQ(x.matrix, y.matrix);
  EXPECT_EQ(x.stats.messages, y.stats.messages);
  EXPECT_EQ(x.stats.local_reads, y.stats.local_reads);
  EXPECT_EQ(x.stats.remote_reads, y.stats.remote_reads);
  EXPECT_EQ(x.stats.iterations, y.stats.iterations);
  EXPECT_EQ(x.stats.tests, y.stats.tests);
  EXPECT_EQ(x.stats.bulk_messages, y.stats.bulk_messages);
  EXPECT_EQ(x.stats.halo_messages, y.stats.halo_messages);
  EXPECT_EQ(x.stats.halo_values, y.stats.halo_values);
  EXPECT_EQ(x.stats.halo_reads, y.stats.halo_reads);
  EXPECT_EQ(x.stats.steps, y.stats.steps);
  EXPECT_EQ(x.stats.sim_time, y.stats.sim_time);
}

bool toolchain() { return spmd::jit_toolchain_available(); }

// ---- source emission and content addressing --------------------------

TEST(JitSource, EmitsBothEntryPointsAndTracksClause) {
  spmd::Program p = lang::compile(stencil_src(1, 40));
  const auto* clause = std::get_if<prog::Clause>(&p.steps.front());
  ASSERT_NE(clause, nullptr);
  std::string src = spmd::jit_source(*clause);
  EXPECT_NE(src.find("vcal_jit_fused"), std::string::npos);
  EXPECT_NE(src.find("vcal_jit_replay"), std::string::npos);
  EXPECT_NE(src.find("if ("), std::string::npos) << "guard not emitted";

  // Fingerprints are stable and clause-sensitive.
  EXPECT_EQ(spmd::jit_fingerprint(src), spmd::jit_fingerprint(src));
  EXPECT_EQ(spmd::jit_fingerprint(src).rfind("vcal", 0), 0u);
  spmd::Program q = lang::compile(stencil_src(1, 41));
  const auto* other = std::get_if<prog::Clause>(&q.steps.front());
  ASSERT_NE(other, nullptr);
  EXPECT_NE(spmd::jit_fingerprint(src),
            spmd::jit_fingerprint(spmd::jit_source(*other)));
}

// ---- bit-identical dispatch ------------------------------------------

TEST(JitDispatch, DistBitIdenticalAcrossEnginesAndThreads) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  for (int threads : {1, 4}) {
    EngineOptions off = jit_off();
    off.threads = threads;
    // Remote-heavy replay (gather segments) and a guarded self-read
    // stencil (fused segments) both stay bit-identical.
    for (const std::string& src :
         {comm_src(6, 7), stencil_src(6, 50)}) {
      EngineOptions on = jit_on(cache);
      on.threads = threads;
      const std::string load = src.find('B') == std::string::npos ||
                                       src.find("array B") == std::string::npos
                                   ? "A"
                                   : "B";
      DistRun r_on = run_dist(src, on, load);
      DistRun r_off = run_dist(src, off, load);
      expect_same_dist(r_on, r_off);
      EXPECT_GT(r_on.jit.hits, 0) << threads;
      EXPECT_GT(r_on.paths.jit, 0) << threads;
      EXPECT_EQ(r_off.jit.hits, 0) << threads;
      EXPECT_EQ(r_off.paths.jit, 0) << threads;
    }
  }
}

TEST(JitDispatch, SharedBitIdenticalAcrossEnginesAndThreads) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  for (int threads : {1, 4}) {
    for (const std::string& src :
         {comm_src(6, 8), stencil_src(6, 51)}) {
      EngineOptions on = jit_on(cache);
      on.threads = threads;
      EngineOptions off = jit_off();
      off.threads = threads;
      const std::string load =
          src.find("array B") == std::string::npos ? "A" : "B";
      SharedRun r_on = run_shared(src, on, load);
      SharedRun r_off = run_shared(src, off, load);
      EXPECT_EQ(r_on.a, r_off.a);
      EXPECT_EQ(r_on.stats.iterations, r_off.stats.iterations);
      EXPECT_EQ(r_on.stats.tests, r_off.stats.tests);
      EXPECT_EQ(r_on.stats.sim_time, r_off.stats.sim_time);
      EXPECT_GT(r_on.jit.hits, 0) << threads;
      EXPECT_GT(r_on.paths.jit, 0) << threads;
      EXPECT_EQ(r_off.paths.jit, 0) << threads;
    }
  }
}

TEST(JitDispatch, HaloOperandsReplayJittedBySlot) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  struct Case {
    std::string src, load;
  };
  const std::vector<Case> cases = {{halo_src(8, 54), "B"},
                                   {wide_halo_src(6, 55), "B"},
                                   {self_halo_src(6, 56), "A"}};
  for (int threads : {1, 4})
    for (const Case& c : cases) {
      SCOPED_TRACE(cat("threads=", threads, "\n", c.src));
      spmd::Program program = lang::compile(c.src);
      const std::vector<double> in =
          ramp(program.arrays.at(c.load).total());
      EngineOptions on = jit_on(cache);
      on.threads = threads;
      EngineOptions off = jit_off();
      off.threads = threads;
      DistMachine m_on(program, {}, {}, on);
      DistMachine m_off(program, {}, {}, off);
      SeqExecutor seq(program, /*reference=*/true);
      m_on.load(c.load, in);
      m_off.load(c.load, in);
      seq.load(c.load, in);
      m_on.run();
      m_off.run();
      seq.run();
      for (const auto& [name, desc] : program.arrays) {
        EXPECT_EQ(m_on.gather(name), seq.result(name)) << name;
        EXPECT_EQ(m_on.gather(name), m_off.gather(name)) << name;
      }
      expect_same_dist({m_on.gather("A"), m_on.stats(), m_on.message_matrix(),
                        {}, {}},
                       {m_off.gather("A"), m_off.stats(),
                        m_off.message_matrix(), {}, {}});
      EXPECT_GT(m_off.stats().halo_reads, 0);
      // Every replayed element of the bytecode run is a jitted element
      // here: halo operands no longer keep a rank on bytecode.
      const PathCounters& pon = m_on.path_counters();
      const PathCounters& poff = m_off.path_counters();
      EXPECT_GT(poff.sched, 0);
      EXPECT_EQ(pon.sched, 0);
      EXPECT_GE(pon.jit, poff.sched);
      EXPECT_EQ(pon.fused + pon.generic + pon.jit,
                poff.fused + poff.generic + poff.sched);
      EXPECT_EQ(m_on.comm_stats().sched_hits, m_off.comm_stats().sched_hits);
    }
}

TEST(JitDispatch, ArmsOnTheNthCleanExecution) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  // threshold 3 over 6 executions: two bytecode passes, then the third
  // poll arms and (synchronously) swaps — four jitted executions.
  DistRun r = run_dist(stencil_src(6, 52), jit_on(cache, /*threshold=*/3),
                       "A");
  EXPECT_EQ(r.jit.builds + r.jit.cache_hits, 1);
  EXPECT_EQ(r.jit.hits, 4);
  EXPECT_EQ(r.jit.fallbacks, 0);

  // Below the threshold nothing arms, nothing compiles.
  DistRun cold = run_dist(stencil_src(2, 53), jit_on(cache, /*threshold=*/3),
                          "A");
  EXPECT_EQ(cold.jit.builds + cold.jit.cache_hits, 0);
  EXPECT_EQ(cold.jit.hits, 0);
}

TEST(JitDispatch, ContentAddressedCacheIsReusedAcrossMachines) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  DistRun first = run_dist(stencil_src(4, 54), jit_on(cache), "A");
  EXPECT_EQ(first.jit.builds + first.jit.cache_hits, 1);
  // A second machine running the same clause reuses the compiled module
  // (registry or .so hit) instead of building again.
  DistRun second = run_dist(stencil_src(4, 54), jit_on(cache), "A");
  EXPECT_EQ(second.jit.builds, 0);
  EXPECT_EQ(second.jit.cache_hits, 1);
  EXPECT_EQ(first.a, second.a);
}

// ---- failure paths ----------------------------------------------------

TEST(JitFallback, MissingToolchainFallsBackBitIdentically) {
  const std::string cache = temp_cache_dir();
  // The broken compiler is injected into one context only; the r_off
  // machine (fresh private context) never sees it.
  auto ctx = std::make_shared<EngineContext>();
  ctx->jit().test_set_compiler("/nonexistent/vcal-no-cc");
  DistRun r_on = run_dist(stencil_src(5, 60), jit_on(cache), "A", ctx);
  DistRun r_off = run_dist(stencil_src(5, 60), jit_off(), "A");
  expect_same_dist(r_on, r_off);
  EXPECT_EQ(r_on.jit.hits, 0);
  EXPECT_EQ(r_on.paths.jit, 0);
  // A toolchain-less host never arms — no doomed compile jobs — and
  // records exactly one fallback per clause key, not one per execution.
  EXPECT_EQ(r_on.jit.builds + r_on.jit.cache_hits, 0);
  EXPECT_EQ(r_on.jit.fallbacks, 1);
}

TEST(JitFallback, InjectedCompileErrorFallsBackBitIdentically) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  auto ctx = std::make_shared<EngineContext>();
  ctx->jit().test_corrupt_source(true);
  DistRun r_on = run_dist(stencil_src(5, 61), jit_on(cache), "A", ctx);
  DistRun r_off = run_dist(stencil_src(5, 61), jit_off(), "A");
  expect_same_dist(r_on, r_off);
  EXPECT_EQ(r_on.jit.hits, 0);
  EXPECT_GT(r_on.jit.fallbacks, 0);

  // The corrupted unit hashed differently, so the cache was never
  // poisoned: the same clause now compiles and dispatches cleanly.
  DistRun healed = run_dist(stencil_src(5, 61), jit_on(cache), "A");
  EXPECT_GT(healed.jit.hits, 0);
  EXPECT_EQ(healed.a, r_off.a);
}

TEST(JitFallback, DlopenFailureFallsBackBitIdentically) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  auto ctx = std::make_shared<EngineContext>();
  ctx->jit().test_fail_dlopen(true);
  DistRun r_on = run_dist(stencil_src(5, 62), jit_on(cache), "A", ctx);
  DistRun r_off = run_dist(stencil_src(5, 62), jit_off(), "A");
  expect_same_dist(r_on, r_off);
  EXPECT_EQ(r_on.jit.hits, 0);
  EXPECT_GT(r_on.jit.fallbacks, 0);
}

TEST(JitFallback, CorruptCachedSoIsDroppedAndRebuilt) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  // Plant garbage at the exact content address the clause will load:
  // dlopen refuses it, the engine drops the bad file, and one fresh
  // compile swaps in — the clause is not locked out of JIT forever.
  spmd::Program p = lang::compile(stencil_src(5, 63));
  const auto* clause = std::get_if<prog::Clause>(&p.steps.front());
  ASSERT_NE(clause, nullptr);
  const std::string key = spmd::jit_fingerprint(spmd::jit_source(*clause));
  {
    std::ofstream bad(cache + "/" + key + ".so");
    bad << "not a shared object";
  }
  DistRun r_on = run_dist(stencil_src(5, 63), jit_on(cache), "A");
  DistRun r_off = run_dist(stencil_src(5, 63), jit_off(), "A");
  expect_same_dist(r_on, r_off);
  EXPECT_EQ(r_on.jit.builds, 1);
  EXPECT_EQ(r_on.jit.cache_hits, 0);
  EXPECT_GT(r_on.jit.hits, 0);
  EXPECT_EQ(r_on.jit.fallbacks, 0);
}

TEST(JitFallback, UnsafeCacheDirFallsBackBitIdentically) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  // Group/other-writable directories feed dlopen with files another
  // user could plant; the engine must refuse them and stay on bytecode.
  ASSERT_EQ(::chmod(cache.c_str(), 0777), 0);
  DistRun r_on = run_dist(stencil_src(5, 64), jit_on(cache), "A");
  DistRun r_off = run_dist(stencil_src(5, 64), jit_off(), "A");
  expect_same_dist(r_on, r_off);
  EXPECT_EQ(r_on.jit.hits, 0);
  EXPECT_EQ(r_on.paths.jit, 0);
  EXPECT_GT(r_on.jit.fallbacks, 0);
}

TEST(JitFallback, RedistributedLayoutArmsItsOwnState) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  // Armed before the mid-program redistribution; the new layout's plan
  // entry arms a JIT state of its own and jits too. The old state stays
  // with its layout, so nothing falls back.
  DistRun r_on = run_dist(comm_src(6, 9, /*redist=*/true), jit_on(cache));
  DistRun r_off = run_dist(comm_src(6, 9, /*redist=*/true), jit_off());
  expect_same_dist(r_on, r_off);
  EXPECT_EQ(r_on.jit.fallbacks, 0);
  EXPECT_GT(r_on.jit.hits, 0);
  // Same guard/RHS on both sides of the redistribution: the second arm
  // is a content-addressed reuse, not a fresh build.
  EXPECT_EQ(r_on.jit.builds + r_on.jit.cache_hits, 2);
  EXPECT_GE(r_on.jit.cache_hits, 1);
}

TEST(JitFallback, AsyncCompileNeverBlocksAndStaysBitIdentical) {
  if (!toolchain()) GTEST_SKIP() << "no C compiler detected";
  const std::string cache = temp_cache_dir();
  EngineOptions e = jit_on(cache);
  e.jit_sync = false;  // background worker; steps never wait on it
  auto ctx = std::make_shared<EngineContext>();
  DistRun r_on = run_dist(comm_src(8, 10), e, "B", ctx);
  DistRun r_off = run_dist(comm_src(8, 10), jit_off());
  expect_same_dist(r_on, r_off);
  // Whether any step caught the compiled module — and hence whether the
  // machine ever harvested the build into its own counters — is
  // timing-dependent. Drain the context's worker and prove the build
  // landed: a fresh machine on the same context gets a pure cache hit
  // from the module registry.
  ctx->jit().drain();
  DistRun warm = run_dist(comm_src(8, 10), jit_on(cache), "B", ctx);
  EXPECT_EQ(warm.jit.builds, 0);
  EXPECT_EQ(warm.jit.cache_hits, 1);
  EXPECT_GT(warm.jit.hits, 0);
  EXPECT_EQ(warm.a, r_off.a);
}

// ---- stats plumbing ---------------------------------------------------

TEST(JitStats, StrReportsEveryCounter) {
  spmd::JitStats s;
  s.builds = 2;
  s.cache_hits = 3;
  s.hits = 40;
  s.fallbacks = 1;
  s.compile_ms = 12.5;
  std::string line = s.str();
  EXPECT_NE(line.find("jit-builds=2"), std::string::npos) << line;
  EXPECT_NE(line.find("jit-cache-hits=3"), std::string::npos) << line;
  EXPECT_NE(line.find("jit-hits=40"), std::string::npos) << line;
  EXPECT_NE(line.find("jit-fallbacks=1"), std::string::npos) << line;
  EXPECT_NE(line.find("jit-compile-ms"), std::string::npos) << line;
}

}  // namespace
}  // namespace vcal::rt
