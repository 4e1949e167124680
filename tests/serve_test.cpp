// The serve subsystem: compile-cache keying and singleflight, served
// results bit-identical to direct in-process execution, warm-cache
// requests skipping the parse->rewrite->plan front half (pinned by
// counters), session isolation (no plan/trace/metric bleed between
// concurrent sessions), backpressure, and clean shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <new>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/engine_context.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "serve/client.hpp"
#include "serve/compile_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace {

using namespace vcal;

const char kRotate[] =
    "processors 4;\n"
    "array A[0:9]; array B[0:9];\n"
    "distribute A block; distribute B block;\n"
    "forall i in 0:9 do A[i] := B[(i + 6) mod 10]; od\n";

const char kRotateScatter[] =
    "processors 4;\n"
    "array A[0:9]; array B[0:9];\n"
    "distribute A scatter; distribute B block;\n"
    "forall i in 0:9 do A[i] := B[(i + 6) mod 10]; od\n";

const char kTwoStep[] =
    "processors 4;\n"
    "array A[0:19]; array B[0:19];\n"
    "distribute A block; distribute B scatter;\n"
    "forall i in 0:18 do A[i] := B[i + 1]*2; od\n"
    "forall i in 0:18 do B[i] := A[i] + 1; od\n";

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<size_t>(i)] = static_cast<double>(i);
  return v;
}

serve::RunRequest make_req(const std::string& source,
                           serve::Target target = serve::Target::Dist) {
  serve::RunRequest req;
  req.source = source;
  req.target = target;
  req.inputs.push_back({"B", /*ramp=*/true, {}});
  req.gather = {"A"};
  return req;
}

/// A started server plus one connected client, torn down in order.
struct ServeFixture {
  serve::Server server;
  serve::Client client;

  explicit ServeFixture(serve::ServeOptions opts = {})
      : server(std::move(opts)) {
    server.start();
    client.connect(server.address());
  }
  ~ServeFixture() {
    client.close();
    server.stop();
  }
};

// ---- compile cache ---------------------------------------------------

TEST(CompileCache, FingerprintCoversSourceAndBuildOptions) {
  gen::BuildOptions b;
  std::uint64_t base = serve::compile_fingerprint(kRotate, b);
  EXPECT_EQ(base, serve::compile_fingerprint(kRotate, b));  // stable

  EXPECT_NE(base, serve::compile_fingerprint(kRotateScatter, b));

  gen::BuildOptions naive = b;
  naive.force_runtime_resolution = true;
  EXPECT_NE(base, serve::compile_fingerprint(kRotate, naive));

  gen::BuildOptions pieces = b;
  pieces.max_pieces = 7;
  EXPECT_NE(base, serve::compile_fingerprint(kRotate, pieces));
}

TEST(CompileCache, HitSkipsCompileAndErrorsAreCached) {
  serve::CompileCache cache;
  auto first = cache.get(kRotate, {});
  EXPECT_TRUE(first.entry->ok);
  EXPECT_FALSE(first.hit);
  auto second = cache.get(kRotate, {});
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.entry.get(), second.entry.get());  // shared, not rebuilt
  EXPECT_EQ(cache.counters().compiles, 1);

  // A compile error is an outcome worth caching too.
  auto bad1 = cache.get("array A[0:9]\n", {});
  EXPECT_FALSE(bad1.entry->ok);
  EXPECT_EQ(bad1.entry->error_kind, serve::ErrKind::Parse);
  auto bad2 = cache.get("array A[0:9]\n", {});
  EXPECT_TRUE(bad2.hit);
  EXPECT_EQ(cache.counters().compiles, 2);
  EXPECT_EQ(cache.counters().entries, 2);
}

TEST(CompileCache, SingleflightCoalescesConcurrentMisses) {
  serve::CompileCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<serve::CompileCache::Outcome> outcomes(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      outcomes[static_cast<size_t>(t)] = cache.get(kTwoStep, {});
    });
  for (auto& t : threads) t.join();

  auto c = cache.counters();
  EXPECT_EQ(c.compiles, 1);  // the whole point
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits + c.coalesced, kThreads - 1);
  for (const auto& o : outcomes) {
    ASSERT_NE(o.entry, nullptr);
    EXPECT_TRUE(o.entry->ok);
    EXPECT_EQ(o.entry.get(), outcomes[0].entry.get());
  }
}

TEST(CompileCache, LruBoundEvictsLeastRecentlyRequested) {
  serve::CompileCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2);
  cache.get(kRotate, {});                        // resident: A
  auto b = cache.get(kRotateScatter, {});        // resident: B, A
  EXPECT_EQ(cache.counters().entries, 2);

  // A hit refreshes recency, so B (not A) is now the eviction victim.
  EXPECT_TRUE(cache.get(kRotate, {}).hit);
  cache.get(kTwoStep, {});  // over capacity: B is dropped
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 2);
  EXPECT_EQ(c.evictions, 1);
  EXPECT_TRUE(cache.get(kRotate, {}).hit);   // survived the eviction
  EXPECT_TRUE(cache.get(kTwoStep, {}).hit);  // resident

  // The evicted program recompiles on its next request (a miss), and
  // inserting it evicts today's LRU in turn.
  auto again = cache.get(kRotateScatter, {});
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(cache.counters().evictions, 2);
  EXPECT_EQ(cache.counters().entries, 2);

  // Eviction only dropped the cache's reference: the old shared entry
  // is still alive and usable for anyone holding it.
  EXPECT_TRUE(b.entry->ok);
  EXPECT_NE(b.entry.get(), again.entry.get());  // genuinely recompiled
}

TEST(Serve, CacheEntriesBoundShowsUpInServerStats) {
  serve::ServeOptions opts;
  opts.cache_entries = 1;
  ServeFixture fx(std::move(opts));
  ASSERT_EQ(fx.client.run(make_req(kRotate)).status, serve::Status::Ok);
  ASSERT_EQ(fx.client.run(make_req(kTwoStep)).status, serve::Status::Ok);

  serve::ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.cache_entries, 1);    // the bound held
  EXPECT_EQ(stats.cache_evictions, 1);  // kRotate was dropped
  // The evicted program still serves correctly — it just recompiles.
  serve::RunResult back = fx.client.run(make_req(kRotate));
  ASSERT_EQ(back.status, serve::Status::Ok);
  EXPECT_FALSE(back.cache_hit);
  EXPECT_EQ(fx.server.stats().cache_evictions, 2);
}

// ---- engine-context isolation (the de-globalized state) --------------

TEST(EngineContext, PlanCachesAndTracersDoNotBleedAcrossContexts) {
  auto ctx_a = std::make_shared<rt::EngineContext>();
  auto ctx_b = std::make_shared<rt::EngineContext>();
  spmd::Program prog = lang::compile(kRotate);

  rt::EngineOptions traced;
  traced.trace = true;
  {
    rt::DistMachine m(prog, {}, {}, traced, ctx_a, "rotate");
    m.load("B", ramp(10));
    m.run();
  }
  // Context A traced; context B never allocated a lane or an event.
  EXPECT_GT(ctx_a->trace_events(), 0);
  EXPECT_EQ(ctx_b->trace_events(), 0);
  EXPECT_EQ(ctx_b->trace_lanes(), 0);

  // B's first run of the same scope misses (no cross-context warmth)...
  {
    rt::DistMachine m(prog, {}, {}, {}, ctx_b, "rotate");
    m.load("B", ramp(10));
    m.run();
    EXPECT_EQ(m.plan_cache().hits(), 0);
    EXPECT_GT(m.plan_cache().misses(), 0);
  }
  // ...and B's second run hits the cache its first run warmed. The
  // leased cache's counters are cumulative across leases, so compare
  // deltas (as the serve layer does).
  {
    rt::DistMachine m(prog, {}, {}, {}, ctx_b, "rotate");
    i64 h0 = m.plan_cache().hits(), m0 = m.plan_cache().misses();
    m.load("B", ramp(10));
    m.run();
    EXPECT_GT(m.plan_cache().hits() - h0, 0);
    EXPECT_EQ(m.plan_cache().misses() - m0, 0);
  }
}

TEST(EngineContext, ConcurrentLeasesOfOneScopeGetDistinctCaches) {
  auto ctx = std::make_shared<rt::EngineContext>();
  spmd::PlanCache* a = ctx->acquire_plans("s", rt::PlanKind::Dist);
  spmd::PlanCache* b = ctx->acquire_plans("s", rt::PlanKind::Dist);
  EXPECT_NE(a, b);  // a PlanCache serves one machine at a time
  ctx->release_plans(a);
  spmd::PlanCache* c = ctx->acquire_plans("s", rt::PlanKind::Dist);
  EXPECT_EQ(c, a);  // released lease comes back warm
  ctx->release_plans(b);
  ctx->release_plans(c);
}

// ---- served execution ------------------------------------------------

TEST(Serve, ServedResultsMatchDirectExecutionOnEveryTarget) {
  ServeFixture fx;
  for (const char* source : {kRotate, kRotateScatter, kTwoStep}) {
    spmd::Program prog = lang::compile(source);
    i64 n = prog.arrays.find("B")->second.total();

    rt::DistMachine direct(prog, {}, {}, {});
    direct.load("B", ramp(n));
    direct.run();

    serve::RunResult dist = fx.client.run(make_req(source));
    ASSERT_EQ(dist.status, serve::Status::Ok) << dist.error;
    ASSERT_EQ(dist.stores.size(), 1u);
    EXPECT_EQ(dist.stores[0].second, direct.gather("A"));
    EXPECT_EQ(dist.stats_line, direct.stats().str());

    serve::RunResult shared =
        fx.client.run(make_req(source, serve::Target::Shared));
    ASSERT_EQ(shared.status, serve::Status::Ok) << shared.error;
    EXPECT_EQ(shared.stores[0].second, direct.gather("A"));

    serve::RunResult seq =
        fx.client.run(make_req(source, serve::Target::Seq));
    ASSERT_EQ(seq.status, serve::Status::Ok) << seq.error;
    EXPECT_EQ(seq.stores[0].second, direct.gather("A"));
  }
}

TEST(Serve, DistAndSharedRunsOfOneProgramKeepSeparatePlanCaches) {
  // The repeated rotate clause inspects a schedule on dist (local-row
  // offsets) and records one on shared (dense offsets); both ride in
  // plan-cache entries of the same program. Alternating targets within
  // one session must never hand one machine kind the other's schedule.
  std::string src =
      "processors 4;\narray A[0:15]; array B[0:15];\n"
      "distribute A block; distribute B scatter;\n";
  for (int t = 0; t < 3; ++t)
    src += "forall i in 0:15 do A[i] := B[(i + 3) mod 16]*2; od\n";
  spmd::Program prog = lang::compile(src);
  rt::DistMachine direct(prog, {}, {}, {});
  direct.load("B", ramp(16));
  direct.run();
  rt::SharedMachine direct_shared(prog, {}, {}, false, {});
  direct_shared.load("B", ramp(16));
  direct_shared.run();

  ServeFixture fx;
  for (serve::Target target : {serve::Target::Dist, serve::Target::Shared,
                               serve::Target::Dist, serve::Target::Shared}) {
    serve::RunResult r = fx.client.run(make_req(src, target));
    ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
    ASSERT_EQ(r.stores.size(), 1u);
    EXPECT_EQ(r.stores[0].second, direct.gather("A"));
    EXPECT_EQ(r.stats_line, target == serve::Target::Dist
                                ? direct.stats().str()
                                : direct_shared.stats().str());
  }
}

TEST(Serve, RedistributingProgramRepeatsCorrectlyInOneSession) {
  // A clause whose text appears both before and after a redistribute:
  // each served run must start from the pre-redistribute layout, not
  // from the layout the previous run of the session ended at. The
  // pooled plan cache keeps one entry per layout, so run 1 records a
  // schedule for each (block: record + replay; scatter: record) and
  // every later run replays all three executions, bit-identically.
  const char src[] =
      "processors 4;\narray A[0:31]; array B[0:31];\n"
      "distribute A block; distribute B block;\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2; od\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2; od\n"
      "redistribute B scatter;\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2; od\n";
  spmd::Program prog = lang::compile(src);
  rt::DistMachine direct(prog, {}, {}, {});
  direct.load("B", ramp(32));
  direct.run();

  ServeFixture fx;
  for (int run = 0; run < 3; ++run) {
    serve::RunResult r = fx.client.run(make_req(src));
    ASSERT_EQ(r.status, serve::Status::Ok) << "run " << run << ": "
                                           << r.error;
    EXPECT_EQ(r.stores[0].second, direct.gather("A")) << "run " << run;
    EXPECT_EQ(r.stats_line, direct.stats().str()) << "run " << run;
    EXPECT_EQ(r.plan_misses, run == 0 ? 2 : 0) << "run " << run;
    std::string server_json, session_json;
    fx.client.metrics(&server_json, &session_json);
    EXPECT_NE(session_json.find("\"sched-builds\":2"), std::string::npos)
        << "run " << run << ": " << session_json;
    EXPECT_NE(session_json.find(cat("\"sched-hits\":", 1 + 3 * run)),
              std::string::npos)
        << "run " << run << ": " << session_json;
  }
}

TEST(Serve, WarmRequestSkipsParseRewritePlan) {
  ServeFixture fx;
  serve::RunResult cold = fx.client.run(make_req(kTwoStep));
  ASSERT_EQ(cold.status, serve::Status::Ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.compile_ms, 0.0);
  EXPECT_GT(cold.plan_misses, 0);  // cold: every clause plan is built

  serve::RunResult warm = fx.client.run(make_req(kTwoStep));
  ASSERT_EQ(warm.status, serve::Status::Ok) << warm.error;
  // The acceptance pin: a warm served request skips the front half
  // (compile-cache hit, no recompile) AND the plan half (the leased
  // plan cache comes back warm, so zero plan misses).
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.compile_ms, 0.0);
  EXPECT_EQ(warm.plan_misses, 0);
  EXPECT_GT(warm.plan_hits, 0);
  EXPECT_EQ(warm.stores, cold.stores);  // still the same bits

  serve::ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.compiles, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
}

TEST(Serve, ChangedBuildOptionsOrDecompositionMissesTheCache) {
  ServeFixture fx;
  serve::RunResult first = fx.client.run(make_req(kRotate));
  ASSERT_EQ(first.status, serve::Status::Ok);

  // Same source, different BuildOptions: a different compiled program.
  serve::RunRequest naive = make_req(kRotate);
  naive.build.force_runtime_resolution = true;
  serve::RunResult second = fx.client.run(std::move(naive));
  ASSERT_EQ(second.status, serve::Status::Ok);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.stores, first.stores);  // results agree regardless

  // Changed decomposition lives in the source text, so it misses too.
  serve::RunResult third = fx.client.run(make_req(kRotateScatter));
  ASSERT_EQ(third.status, serve::Status::Ok);
  EXPECT_FALSE(third.cache_hit);

  EXPECT_EQ(fx.server.stats().compiles, 3);
}

TEST(Serve, EngineOptionsShareTheCompiledProgram) {
  // Engine knobs never change the compiled program, so they are not in
  // the cache key: the second request hits even with different knobs —
  // and still produces identical bits (the oracle's invariant, served).
  ServeFixture fx;
  serve::RunResult a = fx.client.run(make_req(kRotate));
  serve::RunRequest req = make_req(kRotate);
  req.engine.threads = 1;
  req.engine.jit = false;
  serve::RunResult b = fx.client.run(std::move(req));
  ASSERT_EQ(b.status, serve::Status::Ok) << b.error;
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.stores, b.stores);
}

TEST(Serve, SeqKernelsRideTheSharedCompileCacheEntry) {
  // The sequential target has no plan cache; its per-clause artifact is
  // the compiled kernel, memoized on the compile-cache entry itself.
  // The first seq execution builds one kernel per clause (reported
  // through the plan counters); every later one — even from another
  // session — reuses them.
  ServeFixture fx;
  serve::RunResult cold =
      fx.client.run(make_req(kTwoStep, serve::Target::Seq));
  ASSERT_EQ(cold.status, serve::Status::Ok) << cold.error;
  EXPECT_EQ(cold.plan_misses, 2);  // kTwoStep has two clauses
  EXPECT_EQ(cold.plan_hits, 0);

  serve::Client other;
  other.connect(fx.server.address());
  serve::RunResult warm = other.run(make_req(kTwoStep, serve::Target::Seq));
  ASSERT_EQ(warm.status, serve::Status::Ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.plan_misses, 0);  // kernels came with the entry
  EXPECT_EQ(warm.plan_hits, 2);
  EXPECT_EQ(warm.stores, cold.stores);
  other.close();
}

TEST(Serve, SessionsAreIsolated) {
  ServeFixture fx;
  serve::Client other;
  other.connect(fx.server.address());
  EXPECT_NE(other.session_id(), fx.client.session_id());

  // Session 1 warms the caches with three requests; session 2 runs the
  // same program once. The content-addressed compile cache is the one
  // deliberately shared layer (compiles are pure), so session 2 hits
  // it — but its *engine* state is its own: a cold plan cache, so its
  // first execution still plans every clause.
  for (int i = 0; i < 3; ++i) {
    serve::RunResult r = fx.client.run(make_req(kRotate));
    ASSERT_EQ(r.status, serve::Status::Ok);
  }
  serve::RunResult r2 = other.run(make_req(kRotate));
  ASSERT_EQ(r2.status, serve::Status::Ok);
  EXPECT_TRUE(r2.cache_hit);     // compiled once, served to everyone
  EXPECT_GT(r2.plan_misses, 0);  // but session 2's own cold plan cache

  // Per-session metrics count each tenant's traffic only.
  std::string server_json, s1, s2;
  fx.client.metrics(&server_json, &s1);
  other.metrics(&server_json, &s2);
  EXPECT_NE(s1.find("\"requests\":3"), std::string::npos) << s1;
  EXPECT_NE(s2.find("\"requests\":1"), std::string::npos) << s2;

  // The server-wide view aggregates: two sessions, one compile of the
  // shared program text.
  serve::ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.sessions_opened, 2);
  EXPECT_EQ(stats.compiles, 1);
  other.close();
}

TEST(Serve, ConcurrentSessionsRaceSafely) {
  serve::ServeOptions opts;
  opts.executors = 4;
  ServeFixture fx(opts);

  constexpr int kClients = 6, kRequests = 8;
  spmd::Program prog = lang::compile(kTwoStep);
  rt::DistMachine direct(prog, {}, {}, {});
  direct.load("B", ramp(20));
  direct.run();
  const std::vector<double> expect = direct.gather("A");

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&] {
      serve::Client client;
      client.connect(fx.server.address());
      for (int i = 0; i < kRequests; ++i) {
        serve::RunResult r = client.run(make_req(kTwoStep));
        if (r.status != serve::Status::Ok ||
            r.stores[0].second != expect)
          failures.fetch_add(1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  serve::ServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  // One compile total: the first racer builds, the rest hit or
  // coalesce onto its singleflight slot — across sessions.
  EXPECT_EQ(stats.compiles, 1);
  EXPECT_EQ(stats.cache_hits + stats.cache_coalesced,
            kClients * kRequests - 1);
}

TEST(Serve, BackpressureRejectsBeyondInflightCap) {
  serve::ServeOptions opts;
  opts.executors = 1;
  opts.session_inflight = 1;
  ServeFixture fx(opts);

  // A deliberately heavy program holds the single executor long enough
  // for the follow-up submissions to find the session at its cap. Each
  // of its 40 clauses reads B at its own shift, so every step is a first
  // execution at its layout (a plan build and an inspection), never a
  // cheap replay, and the program is still running when the follow-up
  // arrives.
  std::string heavy =
      "processors 4;\narray A[0:4095]; array B[0:4095];\n"
      "distribute A block; distribute B scatter;\n";
  for (int k = 1; k <= 40; ++k)
    heavy += cat("forall i in 0:4094 do A[i] := B[(i + ", k,
                 ") mod 4095]*2; od\n");

  serve::RunRequest slow = make_req(heavy);
  slow.engine.threads = 1;
  slow.engine.jit = false;
  i64 slow_id = fx.client.submit(std::move(slow));
  i64 fast_id = fx.client.submit(make_req(kRotate));
  serve::RunResult fast = fx.client.wait(fast_id);
  EXPECT_EQ(fast.status, serve::Status::Rejected);
  EXPECT_NE(fast.error.find("in-flight"), std::string::npos);

  serve::RunResult done = fx.client.wait(slow_id);
  EXPECT_EQ(done.status, serve::Status::Ok) << done.error;
  EXPECT_GE(fx.server.stats().rejected, 1);

  // After the slow request drains, the session serves again.
  serve::RunResult again = fx.client.run(make_req(kRotate));
  EXPECT_EQ(again.status, serve::Status::Ok);
}

TEST(Serve, ErrorsPropagateWithKindAndCachedCompileErrors) {
  ServeFixture fx;
  serve::RunResult parse = fx.client.run(make_req("array A[0:9]\n"));
  EXPECT_EQ(parse.status, serve::Status::CompileError);
  EXPECT_EQ(parse.error_kind, serve::ErrKind::Parse);
  EXPECT_FALSE(parse.error.empty());

  serve::RunResult cached = fx.client.run(make_req("array A[0:9]\n"));
  EXPECT_EQ(cached.status, serve::Status::CompileError);
  EXPECT_TRUE(cached.cache_hit);  // the error itself was cached

  // Unknown input array: compiles fine, faults in execution.
  serve::RunRequest bad_input = make_req(kRotate);
  bad_input.inputs[0].name = "ZZZ";
  serve::RunResult run_err = fx.client.run(std::move(bad_input));
  EXPECT_EQ(run_err.status, serve::Status::RunError);
  EXPECT_FALSE(run_err.error.empty());

  // The session keeps serving after errors.
  EXPECT_EQ(fx.client.run(make_req(kRotate)).status, serve::Status::Ok);
}

TEST(Serve, ExplicitInputValuesAndOutOfOrderWaits) {
  ServeFixture fx;
  serve::RunRequest req = make_req(kRotate);
  req.inputs[0].ramp = false;
  req.inputs[0].values = std::vector<double>(10, 5.0);
  i64 a = fx.client.submit(std::move(req));
  i64 b = fx.client.submit(make_req(kRotate));
  // Waiting b before a exercises the client's result stash.
  serve::RunResult rb = fx.client.wait(b);
  serve::RunResult ra = fx.client.wait(a);
  ASSERT_EQ(ra.status, serve::Status::Ok);
  ASSERT_EQ(rb.status, serve::Status::Ok);
  EXPECT_EQ(ra.stores[0].second, std::vector<double>(10, 5.0));
  EXPECT_EQ(rb.stores[0].second[0], 6.0);  // ramp input, rotated
}

TEST(Serve, TcpLoopbackAndCleanShutdown) {
  serve::ServeOptions opts;
  opts.addr = "127.0.0.1:0";  // port 0: the OS picks, address() tells
  serve::Server server(std::move(opts));
  server.start();
  ASSERT_NE(server.address(), "127.0.0.1:0");

  serve::Client client;
  client.connect(server.address());
  serve::RunResult r = client.run(make_req(kRotate));
  EXPECT_EQ(r.status, serve::Status::Ok) << r.error;

  std::thread waiter([&] { server.wait(); });
  client.shutdown_server();
  waiter.join();  // Shutdown released wait()
  server.stop();
  EXPECT_EQ(server.stats().sessions_active, 0);
}


TEST(ServeProtocol, CorruptInputCountFailsFastWithoutAllocating) {
  // A RUN frame whose input count claims 2^28 entries: the decoder must
  // reject it against the bytes actually present instead of sizing the
  // input table from the count first.
  serve::RunRequest req = make_req(kRotate);
  req.inputs.clear();
  req.gather.clear();
  std::vector<std::uint8_t> bytes = serve::encode_run(req);
  // The frame ends: u32 input count, u32 gather count, u8 want_stats.
  const std::uint32_t huge = 0x10000000;
  std::memcpy(bytes.data() + bytes.size() - 9, &huge, sizeof huge);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    serve::decode_run(bytes);
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

}  // namespace
