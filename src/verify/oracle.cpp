#include "verify/oracle.hpp"

#include <optional>

#include "lang/translate.hpp"
#include "proc/proc_machine.hpp"
#include "rt/dist_machine.hpp"
#include "rt/native_machine.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "spmd/jit.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::verify {

namespace {

using rt::DistMachine;
using rt::DistStats;
using rt::EngineOptions;

/// Field-by-field comparison; empty string when bit-identical.
std::string diff_stats(const DistStats& a, const DistStats& b) {
  auto field = [](const char* name, i64 x, i64 y) -> std::string {
    return x == y ? "" : cat(name, " ", x, " != ", y, "; ");
  };
  std::string out;
  out += field("messages", a.messages, b.messages);
  out += field("bulk_messages", a.bulk_messages, b.bulk_messages);
  out += field("redist_messages", a.redist_messages, b.redist_messages);
  out += field("local_reads", a.local_reads, b.local_reads);
  out += field("remote_reads", a.remote_reads, b.remote_reads);
  out += field("iterations", a.iterations, b.iterations);
  out += field("tests", a.tests, b.tests);
  out += field("halo_messages", a.halo_messages, b.halo_messages);
  out += field("halo_values", a.halo_values, b.halo_values);
  out += field("halo_reads", a.halo_reads, b.halo_reads);
  out += field("steps", a.steps, b.steps);
  if (a.sim_time != b.sim_time)
    out += cat("sim_time ", a.sim_time, " != ", b.sim_time, "; ");
  return out;
}

std::string describe_engine(const EngineOptions& e) {
  return cat("threads=", e.threads, " trace=", e.trace ? 1 : 0,
             " jit=", e.jit ? 1 : 0);
}

/// Synchronous compiles with threshold 1 make the native path
/// deterministic inside the check.
void arm_jit(EngineOptions& e) {
  e.jit = true;
  e.jit_sync = true;
  e.jit_threshold = 1;
}

bool has_sequential_clause(const spmd::Program& program) {
  for (const spmd::Step& step : program.steps)
    if (const auto* c = std::get_if<prog::Clause>(&step))
      if (c->ord == prog::Ordering::Seq) return true;
  return false;
}

}  // namespace

std::string CheckResult::str() const {
  if (ok)
    return cat("ok (", runs, " machine runs; paths: ",
               rt::PathCounters{fused, generic, interp, sched, jit}.str(),
               ")");
  return cat("FAIL after ", runs, " machine runs: ", diagnostics);
}

std::string OracleReport::str() const {
  if (ok)
    return cat("verify: OK — ", programs, " programs, ", runs,
               " machine runs, all configurations bit-identical\n",
               "verify paths: ",
               rt::PathCounters{fused, generic, interp, sched, jit}.str(),
               " elements per execution path");
  std::string out =
      cat("verify: FAIL at iteration ", failing_iter,
          " (replay: --verify --iters 1 --seed ", failing_seed, ")\n",
          diagnostics, "\n");
  if (!reproducer.empty())
    out += cat("shrunk reproducer:\n", reproducer);
  return out;
}

CheckResult Oracle::check_program(
    const spmd::Program& program,
    const std::map<std::string, std::vector<double>>& inputs,
    bool jit_axis, bool proc_axis, const std::string& source,
    bool native_axis) {
  if (!spmd::jit_toolchain_available()) {
    jit_axis = false;
    // Graceful skip: a host without a compiler cannot exercise the
    // native backend (NativeMachine itself would fall back to bytecode
    // and prove nothing).
    native_axis = false;
  }
  CheckResult res;
  auto fail = [&](const std::string& why) {
    if (res.ok) {
      res.ok = false;
      res.diagnostics = why;
    }
  };
  auto load_all = [&](auto& machine) {
    for (const auto& [name, data] : inputs) machine.load(name, data);
  };
  std::vector<std::string> names;
  for (const auto& [name, desc] : program.arrays) names.push_back(name);

  auto tally = [&](const rt::PathCounters& pc) {
    res.fused += pc.fused;
    res.generic += pc.generic;
    res.interp += pc.interp;
    res.sched += pc.sched;
    res.jit += pc.jit;
  };

  // ---- sequential reference --------------------------------------------
  // Ground truth is the sequential executor's tree-walking reference
  // mode; its compiled-kernel mode must reproduce it bit for bit.
  std::map<std::string, std::vector<double>> ref;
  try {
    rt::SeqExecutor seq(program, /*reference=*/true);
    load_all(seq);
    seq.run();
    ++res.runs;
    for (const std::string& n : names) ref[n] = seq.result(n);
  } catch (const Error& e) {
    fail(cat("sequential reference threw: ", e.what()));
    return res;
  }
  try {
    rt::SeqExecutor seqk(program);
    load_all(seqk);
    seqk.run();
    ++res.runs;
    for (const std::string& n : names)
      if (seqk.result(n) != ref[n])
        fail(cat("seq[kernels] diverges from seq[reference] on ", n));
  } catch (const Error& e) {
    fail(cat("seq[kernels] threw: ", e.what()));
  }
  if (!res.ok) return res;

  // ---- shared-memory matrix -------------------------------------------
  for (int threads : {1, 0, 4}) {
    for (bool trace : {false, true}) {
      for (int jit = 0; jit < 2; ++jit) {
        // Native codegen is only exercised when the axis is on;
        // everywhere else the config pins jit off for deterministic path
        // tallies.
        if (jit && !jit_axis) continue;
        EngineOptions e;
        e.threads = threads;
        e.trace = trace;
        e.jit = false;
        if (jit) arm_jit(e);
        try {
          rt::SharedMachine m(program, {}, {}, /*elide_barriers=*/false, e);
          load_all(m);
          m.run();
          ++res.runs;
          tally(m.path_counters());
          for (const std::string& n : names)
            if (m.result(n) != ref[n])
              fail(cat("shared[", describe_engine(e),
                       "] diverges from seq on ", n));
        } catch (const Error& e2) {
          fail(cat("shared[", describe_engine(e), "] threw: ", e2.what()));
        }
        if (!res.ok) return res;
      }
    }
  }
  try {
    EngineOptions e;
    e.jit = false;
    rt::SharedMachine m(program, {}, {}, /*elide_barriers=*/true, e);
    load_all(m);
    m.run();
    ++res.runs;
    for (const std::string& n : names)
      if (m.result(n) != ref[n])
        fail(cat("shared[elide-barriers] diverges from seq on ", n));
  } catch (const Error& e) {
    fail(cat("shared[elide-barriers] threw: ", e.what()));
  }
  if (!res.ok) return res;

  // ---- whole-program native backend: the emitted OpenMP C compiled,
  // dlopened, and run must reproduce the reference bit for bit. With a
  // toolchain present a bytecode fallback is itself a failure — it
  // means the generator emitted C the compiler rejects. ---------------
  if (native_axis) {
    try {
      rt::NativeMachine m(program);
      load_all(m);
      m.run();
      ++res.runs;
      if (!m.native()) {
        fail(cat("native backend fell back to bytecode: ", m.error()));
      } else {
        for (const std::string& n : names)
          if (m.result(n) != ref[n])
            fail(cat("native diverges from seq on ", n));
        if (m.native_stats().steps !=
            static_cast<long long>(program.steps.size()))
          fail(cat("native driver ran ", m.native_stats().steps,
                   " steps, program has ", program.steps.size()));
      }
    } catch (const Error& e) {
      fail(cat("native threw: ", e.what()));
    }
    if (!res.ok) return res;
  }

  // The distributed target rejects '•' clauses by design; its half of
  // the matrix only applies to fully parallel programs.
  if (has_sequential_clause(program)) return res;

  // ---- distributed baseline + stats invariants -------------------------
  EngineOptions base_engine;
  base_engine.threads = 1;
  base_engine.jit = false;
  DistMachine base(program, {}, {}, base_engine);
  try {
    load_all(base);
    base.run();
    ++res.runs;
    tally(base.path_counters());
  } catch (const Error& e) {
    fail(cat("dist[baseline] threw: ", e.what()));
    return res;
  }
  for (const std::string& n : names)
    if (base.gather(n) != ref[n])
      fail(cat("dist[baseline] diverges from seq on ", n));

  const DistStats& st = base.stats();
  const i64 procs = program.procs;
  i64 matrix_total = 0;
  for (i64 s = 0; s < procs; ++s) {
    if (base.message_matrix()[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(s)] != 0)
      fail(cat("message matrix has self-traffic on rank ", s));
    for (i64 d = 0; d < procs; ++d)
      matrix_total += base.message_matrix()[static_cast<std::size_t>(s)]
                                           [static_cast<std::size_t>(d)];
  }
  if (matrix_total != st.messages)
    fail(cat("message conservation violated: matrix total ", matrix_total,
             " != stats.messages ", st.messages));
  // Clause traffic pairs each send with one remote read; redistribution
  // traffic moves elements without reading them, and is accounted
  // separately in redist_messages.
  if (st.messages != st.remote_reads + st.redist_messages)
    fail(cat("unconsumed traffic: messages ", st.messages,
             " != remote_reads ", st.remote_reads, " + redist_messages ",
             st.redist_messages));
  if (st.steps != static_cast<i64>(program.steps.size()))
    fail(cat("steps ", st.steps, " != program steps ",
             program.steps.size()));
  if (st.bulk_messages > st.steps * procs * (procs - 1))
    fail(cat("aggregation bound violated: ", st.bulk_messages,
             " bulk messages > steps * P * (P-1) = ",
             st.steps * procs * (procs - 1)));
  if (base.faults_applied() != 0)
    fail("faults applied on a machine with none armed");
  if (!res.ok) return res;

  // ---- engine matrix: every configuration bit-identical ----------------
  for (int threads : {1, 0, 4}) {
    for (bool trace : {false, true}) {
      for (int jit = 0; jit < 2; ++jit) {
        if (jit && !jit_axis) continue;
        EngineOptions e;
        e.threads = threads;
        e.trace = trace;
        e.jit = false;
        if (jit) arm_jit(e);
        std::string tag = cat("dist[", describe_engine(e), "]");
        try {
          DistMachine m(program, {}, {}, e);
          load_all(m);
          m.run();
          ++res.runs;
          tally(m.path_counters());
          for (const std::string& n : names)
            if (m.gather(n) != ref[n])
              fail(cat(tag, " diverges from seq on ", n));
          std::string sd = diff_stats(m.stats(), st);
          if (!sd.empty()) fail(cat(tag, " stats diverge: ", sd));
          if (m.message_matrix() != base.message_matrix())
            fail(cat(tag, " message matrix diverges"));
        } catch (const Error& e2) {
          fail(cat(tag, " threw: ", e2.what()));
        }
        if (!res.ok) return res;
      }
    }
  }

  // ---- tagged reference: an outcome-neutral fault at every clause step
  // forces the paper's tagged send/receive matching, which must count
  // and compute exactly what the scheduled baseline did ----------------
  const std::vector<rt::FaultPlan> tagged = rt::reorder_every_step(program);
  try {
    DistMachine m(program, {}, {}, base_engine);
    load_all(m);
    for (const rt::FaultPlan& f : tagged) m.inject(f);
    m.run();
    ++res.runs;
    tally(m.path_counters());
    for (const std::string& n : names)
      if (m.gather(n) != ref[n])
        fail(cat("dist[tagged] diverges from seq on ", n));
    std::string sd = diff_stats(m.stats(), st);
    if (!sd.empty()) fail(cat("dist[tagged] stats diverge: ", sd));
    if (m.message_matrix() != base.message_matrix())
      fail("dist[tagged] message matrix diverges");
    if (m.comm_stats().sched_builds != 0 || m.comm_stats().sched_hits != 0)
      fail(cat("dist[tagged] ran a schedule: ", m.comm_stats().str()));
  } catch (const Error& e) {
    fail(cat("dist[tagged] threw: ", e.what()));
  }
  if (!res.ok) return res;

  // ---- multi-process backend: the engine claims extend across real
  // process boundaries — P spawned workers over shared-memory rings
  // must reproduce the serial simulator bit for bit. The first config
  // runs the workers' scheduled path, the second their tagged path (the
  // tagged reference's faults) and trace shipping -----------------------
#if defined(__linux__)
  if (proc_axis && !source.empty()) {
    for (bool second : {false, true}) {
      EngineOptions e;
      e.threads = 1;
      e.jit = false;
      e.trace = second;
      std::string tag =
          cat("proc[", describe_engine(e), second ? " tagged]" : "]");
      try {
        proc::ProcMachine m(source, {}, {}, e);
        load_all(m);
        if (second)
          for (const rt::FaultPlan& f : tagged) m.inject(f);
        m.run();
        ++res.runs;
        for (const std::string& n : names)
          if (m.gather(n) != ref[n])
            fail(cat(tag, " diverges from seq on ", n));
        std::string sd = diff_stats(m.stats(), st);
        if (!sd.empty()) fail(cat(tag, " stats diverge: ", sd));
        if (m.message_matrix() != base.message_matrix())
          fail(cat(tag, " message matrix diverges"));
      } catch (const Error& e2) {
        fail(cat(tag, " threw: ", e2.what()));
      }
      if (!res.ok) return res;
    }
  }
#else
  (void)proc_axis;
  (void)source;
#endif

  // ---- run-time-resolution baseline: same answer, same traffic, the
  // predicted O(n) membership-test class ---------------------------------
  gen::BuildOptions naive;
  naive.force_runtime_resolution = true;
  try {
    DistMachine nv(program, naive, {}, base_engine);
    load_all(nv);
    nv.run();
    ++res.runs;
    for (const std::string& n : names)
      if (nv.gather(n) != ref[n])
        fail(cat("dist[naive] diverges from seq on ", n));
    if (st.tests > nv.stats().tests)
      fail(cat("optimizer test class violated: optimized plans made ",
               st.tests, " membership tests, run-time resolution made ",
               nv.stats().tests));
    if (nv.stats().messages != st.messages)
      fail(cat("naive vs optimized disagree on traffic: ",
               nv.stats().messages, " != ", st.messages));
  } catch (const Error& e) {
    fail(cat("dist[naive] threw: ", e.what()));
  }
  if (!res.ok) return res;

  // ---- cost-model monotonicity/linearity -------------------------------
  rt::CostModel doubled;
  doubled.per_message *= 2;
  doubled.per_value *= 2;
  doubled.per_iteration *= 2;
  doubled.per_test *= 2;
  doubled.per_barrier *= 2;
  doubled.per_bulk_message *= 2;
  try {
    DistMachine sc(program, {}, doubled, base_engine);
    load_all(sc);
    sc.run();
    ++res.runs;
    std::string sd = diff_stats(sc.stats(), st);
    // sim_time legitimately differs; every counter must not.
    if (contains(sd, "messages") || contains(sd, "reads") ||
        contains(sd, "iterations") || contains(sd, "tests") ||
        contains(sd, "steps"))
      fail(cat("cost model changed counters: ", sd));
    if (sc.stats().sim_time != 2.0 * st.sim_time)
      fail(cat("cost model not linear: doubled prices gave sim_time ",
               sc.stats().sim_time, ", expected ", 2.0 * st.sim_time));
    if (sc.stats().sim_time < st.sim_time)
      fail("cost model not monotone in prices");
  } catch (const Error& e) {
    fail(cat("dist[cost x2] threw: ", e.what()));
  }
  return res;
}

CheckResult Oracle::check_source(const std::string& source,
                                 std::uint64_t input_seed, bool jit_axis,
                                 bool proc_axis, bool native_axis) {
  spmd::Program program = lang::compile(source);
  Rng rng(input_seed);
  std::map<std::string, std::vector<double>> inputs;
  for (const auto& [name, desc] : program.arrays) {
    std::vector<double> v(static_cast<std::size_t>(desc.total()));
    for (double& x : v) x = static_cast<double>(rng.uniform(-9, 9));
    inputs[name] = std::move(v);
  }
  return check_program(program, inputs, jit_axis, proc_axis, source,
                       native_axis);
}

namespace {

/// True when the program fails the oracle (divergence, invariant
/// violation, or any exception), with the reason in *why.
bool oracle_rejects(const GeneratedProgram& gp, std::uint64_t input_seed,
                    bool jit_axis, bool proc_axis, bool native_axis,
                    std::string* why) {
  try {
    CheckResult r = Oracle::check_source(gp.source(), input_seed, jit_axis,
                                         proc_axis, native_axis);
    if (!r.ok) {
      *why = r.diagnostics;
      return true;
    }
    return false;
  } catch (const Error& e) {
    *why = cat("exception: ", e.what());
    return true;
  }
}

/// Greedy statement-list minimization: keep removing single statements
/// while the failure (any failure) persists.
GeneratedProgram shrink(GeneratedProgram gp, std::uint64_t input_seed,
                        bool jit_axis, bool proc_axis, bool native_axis) {
  std::string why;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < gp.stmts.size(); ++i) {
      GeneratedProgram candidate = gp;
      candidate.stmts.erase(candidate.stmts.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (oracle_rejects(candidate, input_seed, jit_axis, proc_axis,
                         native_axis, &why)) {
        gp = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return gp;
}

}  // namespace

OracleReport Oracle::run_corpus(const OracleOptions& opts) {
  OracleReport rep;
  for (int k = 0; k < opts.iters; ++k) {
    // Iteration 0 uses the top-level seed directly, so a reported
    // failing_seed replays alone with --iters 1.
    std::uint64_t prog_seed =
        k == 0 ? opts.seed
               : Rng::derive(opts.seed, static_cast<std::uint64_t>(k));
    std::uint64_t input_seed = Rng::derive(prog_seed, 0x1234);
    ProgramGen gen(prog_seed, opts.gen);
    GeneratedProgram gp = gen.next();

    CheckResult cr;
    try {
      cr = check_source(gp.source(), input_seed, opts.jit_axis,
                        opts.proc_axis, opts.native_axis);
    } catch (const Error& e) {
      cr.ok = false;
      cr.diagnostics = cat("exception: ", e.what());
    }
    ++rep.programs;
    rep.runs += cr.runs;
    rep.fused += cr.fused;
    rep.generic += cr.generic;
    rep.interp += cr.interp;
    rep.sched += cr.sched;
    rep.jit += cr.jit;
    if (!cr.ok) {
      rep.ok = false;
      rep.failing_iter = k;
      rep.failing_seed = prog_seed;
      rep.diagnostics = cr.diagnostics;
      rep.reproducer = shrink(gp, input_seed, opts.jit_axis, opts.proc_axis,
                              opts.native_axis)
                           .source();
      break;
    }
  }
  return rep;
}

CheckResult Oracle::check_faults() {
  CheckResult res;
  auto fail = [&](const std::string& why) {
    if (res.ok) {
      res.ok = false;
      res.diagnostics = why;
    }
  };
  // Block LHS against scatter RHS: every rank exchanges messages with
  // every other, so any channel is a valid fault target.
  const std::string src =
      "processors 4;\n"
      "array A[0:31];\ndistribute A block;\n"
      "array B[0:31];\ndistribute B scatter;\n"
      "forall i in 0:30 do A[i] := B[i + 1]*2 + 1; od\n";
  spmd::Program program = lang::compile(src);
  std::vector<double> b(32);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<double>(i) * 0.5;

  auto fresh = [&]() {
    DistMachine m(program);
    m.load("B", b);
    return m;
  };

  DistMachine baseline = fresh();
  baseline.run();
  ++res.runs;
  std::vector<double> want = baseline.gather("A");

  // Pick a live channel from the observed traffic.
  i64 fsrc = -1, fdst = -1;
  for (i64 s = 0; s < 4 && fsrc < 0; ++s)
    for (i64 d = 0; d < 4 && fsrc < 0; ++d)
      if (baseline.message_matrix()[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(d)] > 1) {
        fsrc = s;
        fdst = d;
      }
  if (fsrc < 0) {
    fail("fault smoke found no busy channel to perturb");
    return res;
  }

  {  // Dropped message -> deadlock detector names rank and element.
    DistMachine m = fresh();
    rt::FaultPlan f;
    f.kind = rt::FaultPlan::Kind::DropMessage;
    f.step = 0;
    f.src = fsrc;
    f.dst = fdst;
    bool threw = false;
    m.inject(f);
    try {
      m.run();
    } catch (const DeadlockError& e) {
      threw = true;
      std::string msg = e.what();
      if (!contains(msg, cat("rank ", fdst)) ||
          !contains(msg, "pending receive") ||
          !contains(msg, cat("from rank ", fsrc)))
        fail(cat("deadlock diagnostic not actionable: ", msg));
    } catch (const Error& e) {
      fail(cat("drop fault raised the wrong error: ", e.what()));
    }
    ++res.runs;
    if (!threw) fail("dropped message did not trip the deadlock detector");
    if (res.ok && m.faults_applied() != 1)
      fail("drop fault did not register as applied");
  }

  {  // Duplicated message -> pairing invariant reports it undelivered.
    DistMachine m = fresh();
    rt::FaultPlan f;
    f.kind = rt::FaultPlan::Kind::DuplicateMessage;
    f.step = 0;
    f.src = fsrc;
    f.dst = fdst;
    m.inject(f);
    bool threw = false;
    try {
      m.run();
    } catch (const DeadlockError&) {
      fail("duplicate fault misreported as deadlock");
    } catch (const RuntimeFault& e) {
      threw = true;
      if (!contains(e.what(), "undelivered"))
        fail(cat("pairing diagnostic not actionable: ", e.what()));
    } catch (const Error& e) {
      fail(cat("duplicate fault raised the wrong error: ", e.what()));
    }
    ++res.runs;
    if (!threw && res.ok)
      fail("duplicated message did not trip the pairing invariant");
  }

  {  // Reordered channel -> absorbed: identical results and stats.
    DistMachine m = fresh();
    rt::FaultPlan f;
    f.kind = rt::FaultPlan::Kind::ReorderChannel;
    f.step = 0;
    f.src = fsrc;
    f.dst = fdst;
    m.inject(f);
    try {
      m.run();
      ++res.runs;
      if (m.gather("A") != want) fail("reorder fault changed results");
      std::string sd = diff_stats(m.stats(), baseline.stats());
      if (!sd.empty()) fail(cat("reorder fault changed stats: ", sd));
      if (m.faults_applied() != 1)
        fail("reorder fault did not register as applied");
    } catch (const Error& e) {
      fail(cat("reorder fault threw: ", e.what()));
    }
  }

  {  // Stalled rank -> absorbed once the stall releases.
    DistMachine m = fresh();
    rt::FaultPlan f;
    f.kind = rt::FaultPlan::Kind::StallRank;
    f.step = 0;
    f.rank = 2;
    f.rounds = 3;
    m.inject(f);
    try {
      m.run();
      ++res.runs;
      if (m.gather("A") != want) fail("stall fault changed results");
      if (m.stats().messages != baseline.stats().messages)
        fail("stall fault changed message totals");
      if (m.stall_rounds_served() != 3)
        fail(cat("stall served ", m.stall_rounds_served(),
                 " rounds, expected 3"));
    } catch (const Error& e) {
      fail(cat("stall fault threw: ", e.what()));
    }
  }
  return res;
}

}  // namespace vcal::verify
