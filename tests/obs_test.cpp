// Tests for the observability subsystem (src/obs): ring-buffer trace
// collectors, event invariants on real machine runs, the Chrome
// trace_event / timeline exporters, the unified metrics registry, and
// cost-model calibration.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "lang/translate.hpp"
#include "obs/calibrate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "rt/dist_machine.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/thread_pool.hpp"

// Global allocation counter (g_new_calls / g_count_allocs). Each
// vcal_test is its own binary, so the replaced operators affect no other
// suite.
#include "counting_alloc.hpp"

namespace vcal::obs {
namespace {

// A communicating program: block LHS against scatter RHS makes every
// rank exchange messages with every other.
const char kCommSrc[] =
    "processors 4;\n"
    "array A[0:31];\ndistribute A block;\n"
    "array B[0:31];\ndistribute B scatter;\n"
    "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n";

// The same clause repeated (identical printed form => plan-cache hits),
// with a redistribution between the repetitions.
const char kRepeatSrc[] =
    "processors 4;\n"
    "array A[0:31];\ndistribute A block;\n"
    "array B[0:31];\ndistribute B scatter;\n"
    "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n"
    "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n"
    "redistribute B block;\n"
    "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n"
    "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n";

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i) * 0.5;
  return v;
}

// --- ring buffer ------------------------------------------------------

TEST(RankTrace, WrapOverwritesOldestAndCountsDrops) {
  RankTrace ring(4);
  for (int k = 0; k < 7; ++k) {
    TraceEvent e;
    e.kind = EventKind::MsgSend;
    e.step = k;
    e.wall_ns = k * 10;
    ring.record(e);
  }
  EXPECT_EQ(ring.capacity(), 4);
  EXPECT_EQ(ring.recorded(), 7);
  EXPECT_EQ(ring.size(), 4);
  EXPECT_EQ(ring.dropped(), 3);
  // Retained: events 3..6, oldest to newest.
  std::vector<int> steps;
  ring.for_each([&](const TraceEvent& e) { steps.push_back(e.step); });
  EXPECT_EQ(steps, (std::vector<int>{3, 4, 5, 6}));
  ASSERT_NE(ring.last(), nullptr);
  EXPECT_EQ(ring.last()->step, 6);
}

TEST(RankTrace, SteadyStateRecordingDoesNotAllocate) {
  Tracer tracer(/*ranks=*/2, /*capacity_per_lane=*/64);
  // Warm-up (first records touch nothing — storage is preallocated —
  // but keep the measurement strictly steady-state anyway).
  tracer.record(0, EventKind::MsgSend, 0, 1, 2);
  g_new_calls = 0;
  g_count_allocs = true;
  for (int k = 0; k < 10000; ++k) {
    tracer.record(k % 3, EventKind::MsgSend, k, k, k + 1);
    tracer.set_virtual_time(static_cast<double>(k));
  }
  g_count_allocs = false;
  EXPECT_EQ(g_new_calls.load(), 0);
  EXPECT_EQ(tracer.total_recorded(), 10001);
  EXPECT_GT(tracer.total_dropped(), 0);  // rings wrapped, nothing threw
}

// --- event invariants on real runs -----------------------------------

void check_lane_invariants(const Tracer& tracer) {
  for (i64 lane = 0; lane < tracer.lanes(); ++lane) {
    ASSERT_EQ(tracer.lane(lane).dropped(), 0) << "lane " << lane;
    i64 prev = -1;
    std::map<int, int> open;  // begin kind -> depth
    tracer.lane(lane).for_each([&](const TraceEvent& e) {
      EXPECT_GE(e.wall_ns, prev) << "lane " << lane << " not monotone";
      prev = e.wall_ns;
      if (is_begin(e.kind)) {
        ++open[static_cast<int>(e.kind)];
      } else {
        switch (e.kind) {
          case EventKind::ClauseEnd:
          case EventKind::SendEnd:
          case EventKind::HaloEnd:
          case EventKind::RedistEnd:
          case EventKind::BarrierEnd:
          case EventKind::PackEnd:
          case EventKind::GatherEnd:
          case EventKind::InspectEnd: {
            // Map the End back to its Begin (Begin = End - 1 in the
            // enum layout) and require one open.
            int b = static_cast<int>(e.kind) - 1;
            ASSERT_GT(open[b], 0)
                << "lane " << lane << ": " << kind_name(e.kind)
                << " without matching begin";
            --open[b];
            break;
          }
          default:
            break;  // instants
        }
      }
    });
    for (const auto& [kind, depth] : open)
      EXPECT_EQ(depth, 0) << "lane " << lane << ": unbalanced "
                          << kind_name(static_cast<EventKind>(kind));
  }
}

TEST(TracerInvariants, DistMachineLanesAreMonotoneAndBalanced) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::EngineOptions e;
  e.trace = true;
  e.trace_capacity = 1 << 12;
  for (int threads : {1, 4}) {
    e.threads = threads;
    rt::DistMachine m(program, {}, {}, e);
    m.load("B", ramp(32));
    m.run();
    ASSERT_NE(m.tracer(), nullptr);
    EXPECT_EQ(m.tracer()->lanes(), 5);  // 4 ranks + engine control lane
    EXPECT_GT(m.tracer()->total_recorded(), 0);
    check_lane_invariants(*m.tracer());
    // Every rank lane shows the inspector's walk of its first execution
    // at the layout, one span per schedule built.
    const i64 builds = m.comm_stats().sched_builds;
    ASSERT_GT(builds, 0);
    for (i64 lane = 0; lane < 4; ++lane) {
      i64 inspects = 0;
      m.tracer()->lane(lane).for_each([&](const TraceEvent& ev) {
        if (ev.kind == EventKind::InspectBegin) ++inspects;
      });
      EXPECT_EQ(inspects, builds) << "lane " << lane;
    }
  }
}

TEST(TracerInvariants, SharedMachineLanesAreMonotoneAndBalanced) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::EngineOptions e;
  e.trace = true;
  e.threads = 1;
  rt::SharedMachine m(program, {}, {}, /*elide_barriers=*/false, e);
  m.load("B", ramp(32));
  m.run();
  ASSERT_NE(m.tracer(), nullptr);
  EXPECT_GT(m.tracer()->total_recorded(), 0);
  check_lane_invariants(*m.tracer());
}

TEST(TracerInvariants, SeqExecutorTracesClauseSpans) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::SeqExecutor seq(program);
  Tracer tracer(/*ranks=*/1, 256);
  seq.attach_tracer(&tracer);
  seq.load("B", ramp(32));
  seq.run();
  i64 begins = 0, ends = 0, redist = 0;
  tracer.lane(0).for_each([&](const TraceEvent& e) {
    if (e.kind == EventKind::ClauseBegin) ++begins;
    if (e.kind == EventKind::ClauseEnd) ++ends;
    if (e.kind == EventKind::RedistEpoch) ++redist;
  });
  EXPECT_EQ(begins, 4);
  EXPECT_EQ(ends, 4);
  EXPECT_EQ(redist, 1);
  check_lane_invariants(tracer);
}

TEST(TracerEvents, PlanCacheHitsAndMissesAreTraced) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::EngineOptions e;
  e.trace = true;
  e.threads = 1;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  m.run();
  i64 hits = 0, misses = 0;
  const Tracer& t = *m.tracer();
  t.lane(t.control_lane()).for_each([&](const TraceEvent& ev) {
    if (ev.kind == EventKind::PlanHit) ++hits;
    if (ev.kind == EventKind::PlanMiss) ++misses;
  });
  EXPECT_EQ(hits, m.plan_cache().hits());
  EXPECT_EQ(misses, m.plan_cache().misses());
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

// --- tracing never changes observables --------------------------------

TEST(TraceTransparency, DistRunsAreBitIdenticalWithTracingOnAndOff) {
  spmd::Program program = lang::compile(kRepeatSrc);
  auto run = [&](bool trace) {
    rt::EngineOptions e;
    e.trace = trace;
    rt::DistMachine m(program, {}, {}, e);
    m.load("B", ramp(32));
    m.run();
    return std::make_tuple(m.gather("A"), m.gather("B"), m.stats(),
                           m.message_matrix());
  };
  auto [a_off, b_off, st_off, mm_off] = run(false);
  auto [a_on, b_on, st_on, mm_on] = run(true);
  EXPECT_EQ(a_off, a_on);
  EXPECT_EQ(b_off, b_on);
  EXPECT_EQ(mm_off, mm_on);
  EXPECT_EQ(st_off.messages, st_on.messages);
  EXPECT_EQ(st_off.bulk_messages, st_on.bulk_messages);
  EXPECT_EQ(st_off.local_reads, st_on.local_reads);
  EXPECT_EQ(st_off.remote_reads, st_on.remote_reads);
  EXPECT_EQ(st_off.iterations, st_on.iterations);
  EXPECT_EQ(st_off.tests, st_on.tests);
  EXPECT_EQ(st_off.steps, st_on.steps);
  EXPECT_EQ(st_off.sim_time, st_on.sim_time);
}

TEST(TraceTransparency, SharedRunsAreBitIdenticalWithTracingOnAndOff) {
  spmd::Program program = lang::compile(kRepeatSrc);
  auto run = [&](bool trace) {
    rt::EngineOptions e;
    e.trace = trace;
    rt::SharedMachine m(program, {}, {}, /*elide_barriers=*/false, e);
    m.load("B", ramp(32));
    m.run();
    return std::make_pair(m.result("A"), m.stats());
  };
  auto [a_off, st_off] = run(false);
  auto [a_on, st_on] = run(true);
  EXPECT_EQ(a_off, a_on);
  EXPECT_EQ(st_off.barriers, st_on.barriers);
  EXPECT_EQ(st_off.barriers_elided, st_on.barriers_elided);
  EXPECT_EQ(st_off.iterations, st_on.iterations);
  EXPECT_EQ(st_off.tests, st_on.tests);
  EXPECT_EQ(st_off.sim_time, st_on.sim_time);
}

// --- communication-schedule replay ------------------------------------

TEST(SchedReplay, TraceCarriesPackGatherSpansAndSchedInstants) {
  // Four identical clauses: the first is inspected and runs its fresh
  // schedule, the other three replay it.
  spmd::Program program = lang::compile(
      "processors 4;\n"
      "array A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n");
  rt::EngineOptions e;
  e.trace = true;
  e.threads = 1;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  m.run();
  EXPECT_EQ(m.comm_stats().sched_builds, 1);
  EXPECT_EQ(m.comm_stats().sched_hits, 3);
  EXPECT_GT(m.comm_stats().packed_values, 0);
  EXPECT_EQ(m.comm_stats().packed_values, m.comm_stats().unpacked_values);
  const Tracer& t = *m.tracer();
  i64 builds = 0, hits = 0, packs = 0, gathers = 0;
  t.lane(t.control_lane()).for_each([&](const TraceEvent& ev) {
    if (ev.kind == EventKind::SchedBuild) ++builds;
    if (ev.kind == EventKind::SchedHit) ++hits;
  });
  for (i64 r = 0; r < 4; ++r)
    t.lane(r).for_each([&](const TraceEvent& ev) {
      if (ev.kind == EventKind::PackBegin) ++packs;
      if (ev.kind == EventKind::GatherBegin) ++gathers;
    });
  EXPECT_EQ(builds, m.comm_stats().sched_builds);
  EXPECT_EQ(hits, m.comm_stats().sched_hits);
  EXPECT_EQ(packs, 4 * 4);    // one pack span per rank per scheduled step
  EXPECT_EQ(gathers, 4 * 4);  // one gather span likewise
  check_lane_invariants(t);
}

TEST(SchedReplay, InspectSpansCountElementRecordsAndRuns) {
  // A 1-D block overlap(1) stencil with 256 elements per rank: each
  // rank's inspect span ends with a0 = elements, a1 = element records
  // (its two halo-boundary elements at most) and a2 = runs (the rest),
  // and the Chrome export carries the End's payload as the span's args.
  spmd::Program program = lang::compile(
      "processors 4;\narray U[0:1023];\narray V[0:1023];\n"
      "distribute U block overlap(1);\ndistribute V block overlap(1);\n"
      "forall i in 1:1022 do V[i] := (U[i-1] + U[i+1])/2; od\n");
  rt::EngineOptions e;
  e.trace = true;
  e.threads = 1;
  rt::DistMachine m(program, {}, {}, e);
  m.load("U", ramp(1024));
  m.run();
  const Tracer& t = *m.tracer();
  i64 spans = 0, elements = 0;
  for (i64 r = 0; r < 4; ++r)
    t.lane(r).for_each([&](const TraceEvent& ev) {
      if (ev.kind != EventKind::InspectEnd) return;
      ++spans;
      elements += ev.a0;
      EXPECT_LE(ev.a1, 2) << "rank " << r;
      EXPECT_GE(ev.a2, 1) << "rank " << r;
      EXPECT_EQ(ev.a3, ev.a1) << "rank " << r;  // the records: stretches
    });
  EXPECT_EQ(spans, 4);
  EXPECT_EQ(elements, 1022);
  const std::string json = chrome_trace_json(t, "obs_test");
  const std::size_t at = json.find("\"name\":\"inspect\"");
  ASSERT_NE(at, std::string::npos);
  const std::string rec = json.substr(at, json.find('}', at) - at);
  EXPECT_TRUE(contains(rec, "\"a2\":1")) << rec;
}

TEST(SchedReplay, InspectSpansCountStretchedElements) {
  // A mod-rotate read has no strided runs: the inspector resolves every
  // element through the stretches between the rotate's wraps, so each
  // span reads a3 = a0 (= a1).
  spmd::Program program = lang::compile(
      "processors 4;\narray A[0:63];\narray B[0:63];\n"
      "distribute A scatter;\ndistribute B block;\n"
      "forall i in 0:63 do A[i] := B[(i + 21) mod 64] + A[i]; od\n");
  rt::EngineOptions e;
  e.trace = true;
  e.threads = 1;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(64));
  m.run();
  i64 spans = 0, elements = 0;
  for (i64 r = 0; r < 4; ++r)
    m.tracer()->lane(r).for_each([&](const TraceEvent& ev) {
      if (ev.kind != EventKind::InspectEnd) return;
      ++spans;
      elements += ev.a0;
      EXPECT_EQ(ev.a3, ev.a0) << "rank " << r;
      EXPECT_EQ(ev.a1, ev.a0) << "rank " << r;
    });
  EXPECT_EQ(spans, 4);
  EXPECT_EQ(elements, 64);
}

TEST(SchedReplay, SteadyStateReplayDoesNotAllocate) {
  // Same clause T times: a remote-read clause, block overlap(1)
  // stencils whose every rank reads halo operands (one of them wide
  // enough for strided runs), and one that reads its own target through
  // the halo (copy-in snapshot), on the distributed
  // and the shared machine. After one full run the machine is warm
  // (schedules built, pack buffers, halo rows and scratch sized); a
  // second run replays every step. The T=12 program replays 8 more steps
  // than the T=4 one — if the steady state allocated anything per step,
  // the counts would differ.
  auto remote = [](int t) {
    std::string s =
        "processors 4;\n"
        "array A[0:31];\ndistribute A block;\n"
        "array B[0:31];\ndistribute B scatter;\n";
    for (int k = 0; k < t; ++k)
      s += "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n";
    return s;
  };
  auto halo = [](int t) {
    std::string s =
        "processors 4;\n"
        "array A[0:31];\ndistribute A block overlap(1);\n"
        "array B[0:31];\ndistribute B block overlap(1);\n";
    for (int k = 0; k < t; ++k)
      s += "forall i in 1:30 do A[i] := (B[i-1] + B[i+1])/2; od\n";
    return s;
  };
  // Two ranks of 16: each replays a strided run besides its halo
  // records.
  auto wide_halo = [](int t) {
    std::string s =
        "processors 2;\n"
        "array A[0:31];\ndistribute A block overlap(1);\n"
        "array B[0:31];\ndistribute B block overlap(1);\n";
    for (int k = 0; k < t; ++k)
      s += "forall i in 1:30 do A[i] := (B[i-1] + B[i+1])/2; od\n";
    return s;
  };
  auto self_halo = [](int t) {
    std::string s =
        "processors 4;\n"
        "array B[0:31];\ndistribute B block overlap(1);\n";
    for (int k = 0; k < t; ++k)
      s += "forall i in 1:30 do B[i] := (B[i-1] + B[i+1])/2; od\n";
    return s;
  };
  auto count = [&](auto& m) {
    m.load("B", ramp(32));
    m.run();  // warm-up: the first pass builds the schedule, then replays
    EXPECT_GT(m.comm_stats().sched_hits, 0);
    g_new_calls = 0;
    g_count_allocs = true;
    m.run();  // steady state: every step replays its schedule
    g_count_allocs = false;
    EXPECT_EQ(m.comm_stats().sched_builds, 1);
    return g_new_calls.load();
  };
  rt::EngineOptions e;
  e.threads = 1;  // serial lanes: pool hand-offs would blur the count
  e.jit = false;  // an async jit swap mid-run would blur it too
  auto dist = [&](const std::string& src) {
    rt::DistMachine m(lang::compile(src), {}, {}, e);
    return count(m);
  };
  auto shared = [&](const std::string& src) {
    rt::SharedMachine m(lang::compile(src), {}, {}, /*elide_barriers=*/false,
                        e);
    return count(m);
  };
  using Source = std::string (*)(int);
  for (Source program : {Source(remote), Source(halo), Source(wide_halo),
                         Source(self_halo)}) {
    EXPECT_EQ(dist(program(4)), dist(program(12)));
    EXPECT_EQ(shared(program(4)), shared(program(12)));
  }
}

// --- deadlock diagnostic enrichment -----------------------------------

TEST(TracerEvents, DeadlockDiagnosticNamesLastTracedEvent) {
  spmd::Program program = lang::compile(kCommSrc);
  rt::EngineOptions e;
  e.threads = 1;

  // Find a busy channel first (trace off).
  rt::DistMachine probe(program, {}, {}, e);
  probe.load("B", ramp(32));
  probe.run();
  i64 fsrc = -1, fdst = -1;
  for (i64 s = 0; s < 4 && fsrc < 0; ++s)
    for (i64 d = 0; d < 4 && fsrc < 0; ++d)
      if (probe.message_matrix()[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(d)] > 1) {
        fsrc = s;
        fdst = d;
      }
  ASSERT_GE(fsrc, 0);

  e.trace = true;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  rt::FaultPlan f;
  f.kind = rt::FaultPlan::Kind::DropMessage;
  f.step = 0;
  f.src = fsrc;
  f.dst = fdst;
  m.inject(f);
  try {
    m.run();
    FAIL() << "dropped message did not trip the deadlock detector";
  } catch (const DeadlockError& err) {
    std::string msg = err.what();
    EXPECT_TRUE(contains(msg, "pending receive")) << msg;
    EXPECT_TRUE(contains(msg, "last traced event")) << msg;
    // The RecvWait marker itself lands in the blocked rank's lane for
    // post-mortem export.
    ASSERT_NE(m.tracer(), nullptr);
    bool recv_wait = false;
    m.tracer()->lane(fdst).for_each([&](const TraceEvent& ev) {
      if (ev.kind == EventKind::RecvWait) recv_wait = true;
    });
    EXPECT_TRUE(recv_wait);
  }
}

// --- exporters --------------------------------------------------------

// Minimal JSON reader: validates syntax and returns the number of
// objects in the top-level "traceEvents" array.
struct JsonCheck {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  void string() {
    if (!eat('"')) return;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) {
      ok = false;
      return;
    }
    ++i;  // closing quote
  }
  void number() {
    std::size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E'))
      ++i;
    if (i == start) ok = false;
  }
  void value() {
    ws();
    if (i >= s.size()) {
      ok = false;
      return;
    }
    char c = s[i];
    if (c == '{') {
      object();
    } else if (c == '[') {
      array();
    } else if (c == '"') {
      string();
    } else if (s.compare(i, 4, "true") == 0) {
      i += 4;
    } else if (s.compare(i, 5, "false") == 0) {
      i += 5;
    } else if (s.compare(i, 4, "null") == 0) {
      i += 4;
    } else {
      number();
    }
  }
  void object() {
    if (!eat('{')) return;
    ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return;
    }
    for (;;) {
      string();
      if (!eat(':')) return;
      value();
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      eat('}');
      return;
    }
  }
  std::size_t array() {
    std::size_t count = 0;
    if (!eat('[')) return count;
    ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return count;
    }
    for (;;) {
      value();
      ++count;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      eat(']');
      return count;
    }
  }
};

TEST(Exporters, ChromeTraceJsonParsesAndHasPerRankLanes) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::EngineOptions e;
  e.trace = true;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  m.run();
  std::string json = chrome_trace_json(*m.tracer(), "obs_test");

  JsonCheck check{json};
  check.value();
  check.ws();
  EXPECT_TRUE(check.ok) << "invalid JSON near offset " << check.i;
  EXPECT_EQ(check.i, json.size()) << "trailing garbage";

  EXPECT_TRUE(contains(json, "\"traceEvents\""));
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(contains(json, cat("\"rank ", r, "\""))) << r;
  EXPECT_TRUE(contains(json, "\"engine\""));
  EXPECT_TRUE(contains(json, "\"clause\""));      // at least one span
  EXPECT_TRUE(contains(json, "\"ph\":\"X\""));    // complete slices
  EXPECT_TRUE(contains(json, "\"ph\":\"M\""));    // lane metadata
}

TEST(Exporters, TimelineTextListsEveryLane) {
  spmd::Program program = lang::compile(kCommSrc);
  rt::EngineOptions e;
  e.trace = true;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  m.run();
  std::string text = timeline_text(*m.tracer());
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(contains(text, cat("rank ", r))) << text;
  EXPECT_TRUE(contains(text, "engine"));
  EXPECT_TRUE(contains(text, "clause"));
  EXPECT_TRUE(contains(text, "msg-send"));
}

// --- metrics registry -------------------------------------------------

TEST(Metrics, RegistryLineMatchesDistStatsStr) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::DistMachine m(program);
  m.load("B", ramp(32));
  m.run();
  MetricsRegistry reg;
  collect(reg, m.stats());
  EXPECT_EQ(reg.line(), m.stats().str());
  // Counters that must be present for this communicating program.
  ASSERT_NE(reg.find("messages"), nullptr);
  ASSERT_NE(reg.find("sim-time"), nullptr);
  EXPECT_GT(reg.find("messages")->ival, 0);
}

TEST(Metrics, RegistryFormatsAndSerializes) {
  MetricsRegistry reg;
  reg.set("alpha", 1234567, /*commas=*/true);
  reg.set_real("beta", 2.5);
  reg.add("gamma", 3);
  reg.add("gamma", 4);
  EXPECT_EQ(reg.line(), "alpha=1,234,567 beta=2.5 gamma=7");
  EXPECT_EQ(reg.json(), "{\"alpha\":1234567,\"beta\":2.5,\"gamma\":7}");
  std::string d = reg.dump();
  EXPECT_TRUE(contains(d, "alpha"));
  EXPECT_TRUE(contains(d, "1,234,567"));
  // JSON stays parseable even with comma-formatted entries.
  JsonCheck check{reg.json()};
  check.value();
  EXPECT_TRUE(check.ok);
}

TEST(Metrics, CollectorsCoverEveryProducer) {
  spmd::Program program = lang::compile(kRepeatSrc);
  rt::EngineOptions e;
  e.trace = true;
  e.threads = 2;
  rt::DistMachine m(program, {}, {}, e);
  m.load("B", ramp(32));
  m.run();

  MetricsRegistry reg;
  collect(reg, m.stats());
  collect(reg, m.path_counters());
  collect(reg, m.comm_stats());
  collect(reg, m.plan_cache());
  collect(reg, *m.tracer());
  ASSERT_NE(reg.find("plan-hits"), nullptr);
  ASSERT_NE(reg.find("fused"), nullptr);
  ASSERT_NE(reg.find("sched-builds"), nullptr);
  ASSERT_NE(reg.find("packed-bytes"), nullptr);
  ASSERT_NE(reg.find("trace-events"), nullptr);
  EXPECT_GT(reg.find("trace-events")->ival, 0);
  EXPECT_EQ(reg.find("trace-lanes")->ival, 5);

  support::ThreadPool pool(2);
  pool.parallel_for_ranks(4, [](i64) {});
  // The idle lane parks once its spin window closes.
  for (int i = 0; i < 20000 && pool.parks() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  MetricsRegistry preg;
  collect(preg, pool);
  ASSERT_NE(preg.find("pool-joins"), nullptr);
  EXPECT_EQ(preg.find("pool-joins")->ival, 1);
  EXPECT_EQ(preg.find("pool-size")->ival, 2);
  ASSERT_NE(preg.find("pool-parks"), nullptr);
  EXPECT_GE(preg.find("pool-parks")->ival, 1);
  ASSERT_NE(preg.find("pool-caller-ranks"), nullptr);
  EXPECT_LE(preg.find("pool-caller-ranks")->ival, 4);
}

TEST(Metrics, PathCountersStrDelegatesToRegistry) {
  rt::PathCounters pc{10, 2, 1, 4, 7};
  EXPECT_EQ(pc.str(), "fused=10 generic=2 interp=1 sched=4 jit=7");
}

TEST(Metrics, CommStatsStrDelegatesToRegistry) {
  rt::CommStats c;
  c.sched_builds = 1;
  c.sched_hits = 8;
  c.sched_fallbacks = 2;
  c.packed_values = 1234;
  c.packed_bytes = 9872;
  c.unpacked_values = 1234;
  EXPECT_EQ(c.str(),
            "sched-builds=1 sched-hits=8 sched-fallbacks=2 "
            "packed-values=1,234 packed-bytes=9,872 unpacked-values=1,234");
}

// --- calibration ------------------------------------------------------

TEST(Calibration, BuiltinBenchesProduceAFiniteFit) {
  CalibrationReport rep = calibrate(builtin_calibration_benches());
  EXPECT_GT(rep.samples, 50);
  EXPECT_TRUE(std::isfinite(rep.iter_ns));
  EXPECT_TRUE(std::isfinite(rep.test_ns));
  EXPECT_TRUE(std::isfinite(rep.value_ns));
  EXPECT_TRUE(std::isfinite(rep.bulk_ns));
  EXPECT_GT(rep.ns_per_sim_unit, 0.0);
  ASSERT_GE(rep.phases.size(), 2u);
  bool saw_clause = false, saw_redist = false;
  std::map<std::string, int> benches;
  for (const CalibrationPhase& ph : rep.phases) {
    ++benches[ph.bench];
    if (ph.phase == "clause") saw_clause = true;
    if (ph.phase == "redistribute") saw_redist = true;
    EXPECT_GT(ph.steps, 0) << ph.bench << "/" << ph.phase;
    EXPECT_GE(ph.measured_ms, 0.0);
    EXPECT_TRUE(std::isfinite(ph.err_pct)) << ph.bench << "/" << ph.phase;
  }
  EXPECT_GE(benches.size(), 2u);  // both built-in benchmarks reported
  EXPECT_TRUE(saw_clause);
  EXPECT_TRUE(saw_redist);
  std::string text = rep.str();
  EXPECT_TRUE(contains(text, "ns-per-sim-unit"));
  EXPECT_TRUE(contains(text, "relax"));
}

}  // namespace
}  // namespace vcal::obs
