// The four workloads: set-up, measured passes, and the metrics each
// reports. README.md gives the reason for each workload and the meaning
// of every metric.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.hpp"
#include "serve/server.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using vcal::cat;

// Workload sizes. All programs run on P = 4.
constexpr i64 kStencilN = 65536;
constexpr i64 kStencilSteps = 128;
constexpr i64 kRemapN = 16384;
constexpr i64 kRemapRounds = 8;

// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetups = 3;

// A proc solve costs as much as several solves on the other targets;
// solving on proc only every few rounds buys the others more samples.
constexpr i64 kProcEvery = 4;
constexpr std::chrono::milliseconds kOmpSettle{100};

// serve_mix: the fixed offered rate, its client sessions, how often each
// program is requested (so 1 / kRepeats of the requests are first-sight),
// and the latency limit the capacity ladder is judged against (fixed
// once; never tuned per commit). The rate is a quarter of the median
// capacity_rps (800) of the traced runs made when it was fixed.
constexpr double kServeRate = 200.0;
constexpr int kServeSessions = 4;
constexpr int kRepeats = 4;
constexpr double kLatencyLimitMs = 50.0;
const std::vector<double> kLadder = {100, 200, 400, 800, 1600, 3200, 6400};
constexpr double kRungSeconds = 2.0;

const std::vector<Target> kSolveTargets = {Target::Dist, Target::Shared,
                                           Target::Native, Target::Proc};
const std::vector<Target> kCliTargets = {Target::Seq, Target::Dist, Target::Shared,
                                         Target::Native, Target::Proc};

double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1000.0;
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Repeats `once` kSetups times and returns the median wall time; `once`
/// receives the set-up ordinal and must leave the last set-up in place.
double timed_setups(const std::function<void(int)>& once) {
  std::vector<double> s;
  for (int k = 0; k < kSetups; ++k) {
    Clock::time_point t0 = Clock::now();
    once(k);
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

// ---- in-process solves ---------------------------------------------------

SolveOut checked_solve(const Instance& inst, Target t, const SolveConfig& cfg,
                       Tally& tally, Determinism& det) {
  SolveOut s = solve(inst, t, cfg);
  std::string why = s.error;
  if (why.empty()) matches(inst, s.arrays, &why);
  s.arrays.clear();
  if (!why.empty()) {
    tally.fail(why);
    s.ok = false;
    return s;
  }
  tally.ok();
  det.check(cat(inst.label, " on ", target_name(t)), count_signature(s, t));
  // The multi-process backend must reproduce the simulator's counters.
  if (t == Target::Dist || t == Target::Proc)
    det.check(inst.label + " DistStats", dist_signature(s.dist));
  return s;
}

struct SolvePass {
  std::map<Target, std::vector<double>> total, construct, run, gather;
  std::map<std::pair<std::size_t, Target>, SolveOut> last;  // per instance
  std::map<std::pair<std::size_t, Target>, std::vector<double>> per_instance;
  i64 rounds = 0;
  double wall_s = 0;
};

/// Solves every instance on every target, round after round, for
/// `seconds` (or exactly `rounds` rounds when rounds > 0).
SolvePass solve_pass(const std::vector<Instance>& insts,
                     const std::vector<Target>& targets, const SolveConfig& cfg,
                     double seconds, i64 rounds, Tally& tally, Determinism& det) {
  SolvePass pass;
  const Clock::time_point t0 = Clock::now();
  while (rounds > 0 ? pass.rounds < rounds
                    : pass.rounds == 0 || seconds_since(t0) < seconds) {
    for (std::size_t i = 0; i < insts.size(); ++i) {
      for (Target t : targets) {
        if (t == Target::Proc && pass.rounds % kProcEvery != 0) continue;
        SolveOut s = checked_solve(insts[i], t, cfg, tally, det);
        if (!s.ok) continue;
        pass.total[t].push_back(s.total_ms);
        pass.construct[t].push_back(s.construct_ms);
        pass.run[t].push_back(s.run_ms);
        pass.gather[t].push_back(s.gather_ms);
        pass.per_instance[{i, t}].push_back(s.total_ms);
        pass.last[{i, t}] = std::move(s);
        // The native module's OpenMP team spin-waits after each parallel
        // region; let it go idle so the next solve is measured alone.
        if (t == Target::Native) std::this_thread::sleep_for(kOmpSettle);
      }
    }
    ++pass.rounds;
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

/// Per-layer metrics of a solve pass: per-target times and throughput,
/// and the counters of the last solve of every instance.
void report_solves(const std::vector<Instance>& insts, const SolvePass& pass,
                   std::map<std::string, double>& m) {
  for (const auto& [t, v] : pass.total) {
    const std::string tn = target_name(t);
    m["cli.inproc_ms." + tn] = median(v);
    m["rt.construct_ms." + tn] = median(pass.construct.at(t));
    m["rt.run_ms." + tn] = median(pass.run.at(t));
    m["rt.gather_ms." + tn] = median(pass.gather.at(t));
    double updates = 0, ms = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      auto it = pass.per_instance.find({i, t});
      if (it == pass.per_instance.end()) continue;
      updates += static_cast<double>(insts[i].updates);
      ms += median(it->second);
    }
    m["updates_per_s." + tn] = ratio(updates, ms / 1000.0);
  }
  if (pass.run.count(Target::Proc)) m["proc.run_ms"] = median(pass.run.at(Target::Proc));

  vcal::rt::DistStats d;
  vcal::rt::PathCounters paths;
  vcal::rt::CommStats comm;
  double plan_hits = 0, plan_misses = 0, jit_hits = 0;
  for (const auto& [key, s] : pass.last) {
    if (key.second == Target::Dist) {
      d.messages += s.dist.messages;
      d.bulk_messages += s.dist.bulk_messages;
      d.halo_values += s.dist.halo_values;
      d.redist_messages += s.dist.redist_messages;
      d.remote_reads += s.dist.remote_reads;
      d.tests += s.dist.tests;
      d.sim_time += s.dist.sim_time;
    }
    if (key.second == Target::Dist || key.second == Target::Shared) {
      paths += s.paths;
      comm.sched_builds += s.comm.sched_builds;
      comm.sched_hits += s.comm.sched_hits;
      comm.sched_fallbacks += s.comm.sched_fallbacks;
      plan_hits += static_cast<double>(s.plan_hits);
      plan_misses += static_cast<double>(s.plan_misses);
      jit_hits += static_cast<double>(s.jit.hits);
    }
  }
  m["rt.messages"] = static_cast<double>(d.messages);
  m["rt.bulk_messages"] = static_cast<double>(d.bulk_messages);
  m["rt.halo_values"] = static_cast<double>(d.halo_values);
  m["rt.redist_messages"] = static_cast<double>(d.redist_messages);
  m["rt.remote_reads"] = static_cast<double>(d.remote_reads);
  m["rt.tests"] = static_cast<double>(d.tests);
  m["rt.sim_time"] = d.sim_time;
  // Computed, not measured: every element message and halo value is
  // one double.
  m["rt.bytes_moved"] = 8.0 * static_cast<double>(d.messages + d.halo_values);
  const double elements = static_cast<double>(paths.fused + paths.generic +
                                              paths.interp + paths.sched + paths.jit);
  m["rt.path.fused_frac"] = ratio(static_cast<double>(paths.fused), elements);
  m["rt.path.generic_frac"] = ratio(static_cast<double>(paths.generic), elements);
  m["rt.path.interp_frac"] = ratio(static_cast<double>(paths.interp), elements);
  m["rt.path.sched_frac"] = ratio(static_cast<double>(paths.sched), elements);
  m["rt.path.jit_frac"] = ratio(static_cast<double>(paths.jit), elements);
  m["spmd.plan_cache_hit_ratio"] = ratio(plan_hits, plan_hits + plan_misses);
  m["spmd.sched_hit_ratio"] =
      ratio(static_cast<double>(comm.sched_hits),
            static_cast<double>(comm.sched_hits + comm.sched_builds + comm.sched_fallbacks));
  m["spmd.jit_hits"] = jit_hits;
}

// ---- probes shared by every traced run -------------------------------------

/// Front end, Table I optimizer and clause planner on each distinct
/// program (median of three probes each, summed over the programs).
void report_plans(const std::vector<const Instance*>& insts, Tally& tally,
                  Determinism& det, std::map<std::string, double>& m) {
  double parse = 0, translate = 0, gen = 0, plan = 0, lhs = 0, closed = 0, clauses = 0;
  for (const Instance* inst : insts) {
    std::vector<double> p, t, g, c;
    PlanProbe last;
    for (int k = 0; k < 3; ++k) {
      try {
        last = probe_plans(inst->source);
      } catch (const std::exception& e) {
        tally.fail(cat("plan probe of ", inst->label, ": ", e.what()));
        return;
      }
      tally.ok();
      det.check(inst->label + " plans",
                cat(last.clauses, " ", last.lhs_plans, " ", last.closed_form));
      p.push_back(last.parse_ms);
      t.push_back(last.translate_ms);
      g.push_back(last.gen_ms);
      c.push_back(last.plan_ms);
    }
    parse += median(p);
    translate += median(t);
    gen += median(g);
    plan += median(c);
    lhs += static_cast<double>(last.lhs_plans);
    closed += static_cast<double>(last.closed_form);
    clauses += static_cast<double>(last.clauses);
  }
  m["lang.parse_ms"] = parse;
  m["lang.translate_ms"] = translate;
  m["lang.clauses"] = clauses;
  m["gen.plan_ms"] = gen;
  m["gen.closed_form_frac"] = ratio(closed, lhs);
  m["spmd.plan_build_ms"] = plan;
}

/// Spawn and handshake of the multi-process backend on a one-clause
/// program, and the bare start-up of the vcalc binary.
void report_fixed_costs(const Options& opt, Report& rep) {
  Determinism det(rep.tally);
  SolveConfig cfg;
  cfg.vcalc = opt.vcalc;
  cfg.channel_dir = opt.work + "/channels";
  cfg.cache_dir = opt.work + "/probe-cache";
  fresh_dir(cfg.cache_dir);
  Instance one;
  one.label = "one-clause";
  one.source =
      "processors 4;\narray A[0:7];\ndistribute A block;\n"
      "forall i in 0:7 do A[i] := i; od\n";
  one.outputs = {"A"};
  one.expect["A"] = ramp(8);
  std::vector<double> spawn;
  for (int k = 0; k < 5; ++k) {
    Span span("proc.spawn");
    SolveOut s = checked_solve(one, Target::Proc, cfg, rep.tally, det);
    double ms = span.stop();
    if (s.ok) spawn.push_back(ms);
  }
  rep.metrics["proc.spawn_ms"] = median(spawn);
  std::vector<double> startup;
  for (int k = 0; k < 5; ++k) {
    Span span("cli.startup");
    ProcRun r = run_process({opt.vcalc, "--help"});
    span.stop();
    if (r.status != 0) {
      rep.tally.fail(cat("vcalc --help exited ", r.status));
      continue;
    }
    rep.tally.ok();
    startup.push_back(r.ms);
  }
  rep.metrics["cli.startup_ms"] = median(startup);
}

void report_trace_walls(double untraced_s, double traced_s,
                        std::map<std::string, double>& m) {
  m["trace.untraced_wall_s"] = untraced_s;
  m["trace.traced_wall_s"] = traced_s;
  m["trace.overhead_frac"] = ratio(traced_s - untraced_s, untraced_s);
}

// ---- stencil and remap -----------------------------------------------------

void solve_workload(const Options& opt, const std::function<Instance()>& make_instance,
                    Report& rep) {
  Determinism det(rep.tally);
  SolveConfig cfg;
  cfg.vcalc = opt.vcalc;
  cfg.channel_dir = opt.work + "/channels";
  Instance inst;
  double jit_compile_ms = 0, native_compile_ms = 0;
  // Set-up: generate the program, its inputs and reference, then compile
  // every JIT and native module into a fresh private cache by solving
  // once on each target.
  rep.metrics["setup_s"] = timed_setups([&](int k) {
    inst = make_instance();
    cfg.cache_dir = cat(opt.work, "/cache-", k);
    fresh_dir(cfg.cache_dir);
    jit_compile_ms = native_compile_ms = 0;
    for (Target t : kSolveTargets) {
      SolveOut s = checked_solve(inst, t, cfg, rep.tally, det);
      jit_compile_ms += s.jit.compile_ms;
      native_compile_ms += s.native_compile_ms;
    }
    if (k + 1 < kSetups) std::filesystem::remove_all(cfg.cache_dir);
  });

  const std::vector<Instance> insts = {inst};
  SolvePass pass = solve_pass(insts, kSolveTargets, cfg, opt.seconds, 0, rep.tally, det);
  rep.metrics["latency_ms.dist"] = median(pass.total[Target::Dist]);
  rep.metrics["latency_ms.shared"] = median(pass.total[Target::Shared]);
  if (!opt.trace) return;

  // Traced run: the same number of rounds again with spans on.
  enable_spans(true);
  SolvePass traced = solve_pass(insts, kSolveTargets, cfg, 0, pass.rounds, rep.tally, det);
  report_trace_walls(pass.wall_s, traced.wall_s, rep.metrics);
  report_solves(insts, traced, rep.metrics);
  report_plans({&inst}, rep.tally, det, rep.metrics);
  rep.metrics["spmd.jit_compile_ms"] = jit_compile_ms;
  rep.metrics["spmd.native_compile_ms"] = native_compile_ms;
}

// ---- serve_mix ---------------------------------------------------------------

struct Schedule {
  std::vector<Instance> pool;  // distinct programs, in first-sight order
  std::vector<ServeReq> reqs;
};

/// `rate` requests per second for `seconds`, over a pool of distinct
/// programs (alternately ProgramGen and wide mod-rotate) that are each
/// requested kRepeats times in a seeded order, so a fixed share of the
/// requests (1 / kRepeats) are first-sight programs. Each program has one
/// target (dist, shared or seq): the server keys a session's plan cache
/// by program alone, and a dist machine must not replay a schedule a
/// shared machine recorded for the same program (or the other way round).
Schedule make_schedule(std::uint64_t seed, double rate, double seconds) {
  vcal::Rng rng(seed);
  Schedule sch;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::size_t distinct = (n + kRepeats - 1) / kRepeats;
  std::vector<vcal::serve::Target> target;
  std::uint64_t draw = seed * 1000003;
  while (sch.pool.size() < distinct) {
    // ProgramGen can draw a program no machine accepts; skip those.
    try {
      sch.pool.push_back(mix_instance(++draw, sch.pool.size() % 2 == 1));
    } catch (const std::exception&) {
      continue;
    }
    // Stratified, not drawn: every target gets its fixed share (4:3:3)
    // of both program kinds, whatever the seed.
    const std::size_t t = (sch.pool.size() - 1) / 2 % 10;
    target.push_back(t < 4 ? vcal::serve::Target::Dist
                     : t < 7 ? vcal::serve::Target::Shared
                             : vcal::serve::Target::Seq);
  }
  std::vector<std::size_t> order;
  for (std::size_t p = 0; p < distinct; ++p) order.insert(order.end(), kRepeats, p);
  for (std::size_t k = order.size() - 1; k > 0; --k)
    std::swap(order[k], order[static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(k)))]);
  order.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    ServeReq r;
    r.inst = &sch.pool[order[k]];
    r.target = target[order[k]];
    r.due_ms = 1000.0 * static_cast<double>(k) / rate;
    sch.reqs.push_back(r);
  }
  return sch;
}

struct ServePass {
  ServeLoopOut loop;
  vcal::serve::ServerStats server;
};

/// One open-loop pass against a fresh in-process server.
ServePass serve_pass(const Options& opt, const Schedule& sch, Tally& tally) {
  vcal::serve::ServeOptions so;
  so.addr = opt.work + "/serve.sock";
  so.executors = 4;
  // Latency at a fixed rate is the measure: a stall must show as
  // latency, not turn into backpressure rejections.
  so.session_inflight = 1 << 20;
  vcal::serve::Server server(so);
  server.start();
  ServePass pass;
  pass.loop = serve_loop(server.address(), sch.reqs, kServeSessions, tally);
  pass.server = server.stats();
  server.stop();
  return pass;
}

double median_of_target(const Schedule& sch, const ServeLoopOut& loop,
                        vcal::serve::Target target) {
  std::vector<double> v;
  for (std::size_t k = 0; k < sch.reqs.size(); ++k)
    if (sch.reqs[k].target == target) v.push_back(loop.latency_ms[k]);
  return median(v);
}

void serve_workload(const Options& opt, Report& rep) {
  Determinism det(rep.tally);
  Schedule sch;
  // Set-up: generate the program pool, the schedule and every program's
  // reference (a direct in-process run). Served requests compile inside
  // the server, so there are no modules to prebuild.
  rep.metrics["setup_s"] = timed_setups(
      [&](int) { sch = make_schedule(opt.seed, kServeRate, opt.seconds); });

  // Latency figures of an open loop that fell behind or built a backlog
  // do not measure the offered rate: such a pass invalidates the run.
  auto check_loop = [&](const ServePass& p) {
    if (p.loop.fell_behind)
      rep.tally.invalidate("the request generator fell behind its schedule");
    if (p.loop.backlog_grew)
      rep.tally.invalidate("the backlog grew at the fixed offered rate");
  };
  ServePass pass = serve_pass(opt, sch, rep.tally);
  check_loop(pass);
  rep.metrics["latency_ms.dist"] = median_of_target(sch, pass.loop, vcal::serve::Target::Dist);
  rep.metrics["latency_ms.shared"] =
      median_of_target(sch, pass.loop, vcal::serve::Target::Shared);
  if (!opt.trace) return;

  enable_spans(true);
  ServePass traced = serve_pass(opt, sch, rep.tally);
  check_loop(traced);
  enable_spans(false);
  report_trace_walls(pass.loop.wall_s, traced.loop.wall_s, rep.metrics);
  std::map<std::string, double>& m = rep.metrics;
  const ServeLoopOut& loop = traced.loop;
  const vcal::serve::ServerStats& st = traced.server;
  m["latency_p50_ms"] = median(loop.latency_ms);
  m["latency_tail_ms"] = tail(loop.latency_ms);
  m["serve.exec_p50_ms"] = st.p50_ms;
  m["serve.wait_ms"] = m["latency_p50_ms"] - st.p50_ms;
  m["serve.compile_ms"] = median(loop.compile_ms);
  m["serve.cache_hit_ratio"] =
      ratio(static_cast<double>(st.cache_hits),
            static_cast<double>(st.cache_hits + st.cache_misses));
  m["serve.coalesced"] = static_cast<double>(st.cache_coalesced);
  m["serve.queue_peak"] = static_cast<double>(st.queue_peak);
  m["serve.rejected"] = static_cast<double>(st.rejected);
  m["serve.send_lag_ms"] = tail(loop.send_lag_ms);

  // Capacity: the highest rung whose tail meets the limit with no
  // failure, no late generator and no growing backlog, in the better of
  // two tries (a host hiccup can sink one short try). Failures on a rung
  // are overload, not benchmark failures, so rungs keep their own tally.
  double capacity = 0;
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    bool met = false;
    for (std::uint64_t attempt = 0; attempt < 2 && !met; ++attempt) {
      Schedule rung = make_schedule(opt.seed + 7919 * (2 * r + attempt + 1), kLadder[r],
                                    kRungSeconds);
      Tally rung_tally;
      rung_tally.quiet = true;
      ServePass p = serve_pass(opt, rung, rung_tally);
      met = rung_tally.failed == 0 && !p.loop.fell_behind && !p.loop.backlog_grew &&
            tail(p.loop.latency_ms) <= kLatencyLimitMs;
    }
    if (!met) break;
    capacity = kLadder[r];
  }
  m["capacity_rps"] = capacity;
  enable_spans(true);

  std::vector<const Instance*> distinct;
  for (const Instance& inst : sch.pool) distinct.push_back(&inst);
  report_plans(distinct, rep.tally, det, m);
}

// ---- cli ---------------------------------------------------------------------

struct CliPass {
  std::map<Target, std::vector<double>> warm;
  std::map<Target, std::vector<double>> cold;
  double wall_s = 0;
  i64 rounds = 0;
};

void cli_workload(const Options& opt, Report& rep) {
  Determinism det(rep.tally);
  std::vector<Instance> insts;
  std::vector<std::string> files;
  std::string cache;
  auto run_checked = [&](const Instance& inst, const std::string& file, Target t,
                         const std::string& dir) -> double {
    Span span(cat("cli.process.", target_name(t)));
    ProcRun r = run_process(vcalc_argv(opt.vcalc, inst, file, t, dir));
    span.stop();
    if (r.status != 0) {
      rep.tally.fail(cat("vcalc --target=", target_name(t), " on ", inst.label,
                         " exited ", r.status));
      return -1;
    }
    if (r.out != expected_print(inst)) {
      rep.tally.fail(cat("vcalc --target=", target_name(t), " on ", inst.label,
                         " printed [", r.out, "], reference [", expected_print(inst), "]"));
      return -1;
    }
    rep.tally.ok();
    return r.ms;
  };
  // Set-up: generate the three programs and their references, write
  // them out, and prime a fresh cache with one process per target.
  rep.metrics["setup_s"] = timed_setups([&](int k) {
    insts.clear();
    files.clear();
    for (int shape = 0; shape < 3; ++shape) {
      insts.push_back(cli_instance(opt.seed * 3 + static_cast<std::uint64_t>(shape), shape));
      files.push_back(cat(opt.work, "/", shape, ".vexl"));
      std::ofstream(files.back()) << insts.back().source;
    }
    cache = cat(opt.work, "/cache-", k);
    fresh_dir(cache);
    for (std::size_t i = 0; i < insts.size(); ++i)
      for (Target t : kCliTargets) run_checked(insts[i], files[i], t, cache);
    if (k + 1 < kSetups) std::filesystem::remove_all(cache);
  });

  // One round: every program on every target against the primed cache,
  // then relax on dist and native against an empty one.
  auto pass = [&](double seconds, i64 rounds) {
    CliPass p;
    const Clock::time_point t0 = Clock::now();
    const std::string cold = opt.work + "/cold";
    while (rounds > 0 ? p.rounds < rounds : p.rounds == 0 || seconds_since(t0) < seconds) {
      for (std::size_t i = 0; i < insts.size(); ++i)
        for (Target t : kCliTargets) {
          double ms = run_checked(insts[i], files[i], t, cache);
          if (ms >= 0) p.warm[t].push_back(ms);
        }
      for (Target t : {Target::Dist, Target::Native}) {
        fresh_dir(cold);
        double ms = run_checked(insts[0], files[0], t, cold);
        if (ms >= 0) p.cold[t].push_back(ms);
      }
      ++p.rounds;
    }
    std::filesystem::remove_all(cold);
    p.wall_s = seconds_since(t0);
    return p;
  };
  CliPass untraced = pass(opt.seconds, 0);
  rep.metrics["latency_ms.dist"] = median(untraced.warm[Target::Dist]);
  rep.metrics["latency_ms.shared"] = median(untraced.warm[Target::Shared]);
  if (!opt.trace) return;

  enable_spans(true);
  CliPass traced = pass(0, untraced.rounds);
  report_trace_walls(untraced.wall_s, traced.wall_s, rep.metrics);
  for (const auto& [t, v] : traced.warm) rep.metrics[cat("cli_ms.", target_name(t))] = median(v);
  for (const auto& [t, v] : traced.cold)
    rep.metrics[cat("cli_cold_ms.", target_name(t))] = median(v);

  // The same solves in-process: the gap to cli_ms is the process cost.
  SolveConfig cfg;
  cfg.vcalc = opt.vcalc;
  cfg.channel_dir = opt.work + "/channels";
  cfg.cache_dir = cache;
  SolvePass inproc = solve_pass(insts, kCliTargets, cfg, 0, 10, rep.tally, det);
  report_solves(insts, inproc, rep.metrics);
  std::vector<const Instance*> distinct;
  for (const Instance& inst : insts) distinct.push_back(&inst);
  report_plans(distinct, rep.tally, det, rep.metrics);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "stencil" || name == "remap" || name == "serve_mix" || name == "cli";
}

Report run_workload(const Options& opt) {
  Report rep;
  if (opt.trace) {
    // Fixed costs first, while this process is small: the proc launcher
    // forks its workers, and fork costs grow with the parent's memory.
    enable_spans(true);
    report_fixed_costs(opt, rep);
    enable_spans(false);
  }
  if (opt.workload == "stencil")
    solve_workload(
        opt, [&] { return stencil_instance(opt.seed, kStencilN, kStencilSteps); }, rep);
  else if (opt.workload == "remap")
    solve_workload(
        opt, [&] { return remap_instance(opt.seed, kRemapN, kRemapRounds); }, rep);
  else if (opt.workload == "serve_mix")
    serve_workload(opt, rep);
  else
    cli_workload(opt, rep);
  return rep;
}

}  // namespace perfbench
