// Shared declarations of the repository benchmark (perfbench).
//
// The benchmark drives vcal from the outside: it only calls the public
// functions of each module (lang::parse/translate, gen/spmd plan
// builders, the rt/proc machines, serve::Client, the vcalc binary) and
// reads the counters they already expose. Nothing here is linked into
// or called by the library itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rt/dist_machine.hpp"
#include "rt/engine_options.hpp"
#include "rt/shared_machine.hpp"
#include "serve/protocol.hpp"
#include "spmd/jit.hpp"

namespace perfbench {

using vcal::i64;
using Clock = std::chrono::steady_clock;

// ---- stats.cpp ---------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b);
/// Median; 0 for an empty sample.
double median(std::vector<double> v);
/// The highest percentile with at least ten samples beyond it (the
/// sample at sorted index n-11); with fewer than eleven samples, the
/// maximum.
double tail(std::vector<double> v);

/// Attempted/failed operation count of one run. Every reference
/// mismatch, engine error or determinism break is one failed operation.
struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
  bool invalid = false;  // a run-level check failed (e.g. open-loop lag)
  bool quiet = false;    // count failures without reporting them
  void ok() { ++attempted; }
  void fail(const std::string& why);
  void invalidate(const std::string& why);
};

/// Count metrics that must repeat exactly: the first signature seen
/// under a key is the reference, and every later one must equal it.
class Determinism {
 public:
  explicit Determinism(Tally& tally) : tally_(tally) {}
  void check(const std::string& key, const std::string& signature);

 private:
  Tally& tally_;
  std::map<std::string, std::string> seen_;
};

// ---- spans.cpp ---------------------------------------------------------

/// One timed call into a layer. Always measures its own duration; when
/// tracing is on it is also recorded (name, start, end, parent, request
/// id) in memory and written out by write_spans() at exit.
class Span {
 public:
  explicit Span(std::string name, i64 request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double stop();

 private:
  std::string name_;
  Clock::time_point start_;
  i64 id_ = 0;
  i64 parent_ = 0;
  i64 request_ = 0;
  double ms_ = -1.0;
};

void enable_spans(bool on);
/// Writes every recorded span plus per-name self time as JSON.
bool write_spans(const std::string& path);

// ---- programs.cpp ------------------------------------------------------

struct Input {
  std::string name;
  std::vector<double> values;
};

/// One program of a workload plus its inputs and reference outputs.
struct Instance {
  std::string label;
  std::string source;               // vexl text, generated from the seed
  std::vector<Input> inputs;
  bool ramp = false;                // inputs are 0,1,2,... (vcalc --init)
  std::vector<std::string> outputs; // arrays compared with `expect`
  std::map<std::string, std::vector<double>> expect;
  i64 updates = 0;                  // element updates per solve
};

/// 1-D `block overlap(1)` ping-pong relaxation; reference by plain loop.
Instance stencil_instance(std::uint64_t seed, i64 n, i64 steps);
/// Mod-rotate / strided remaps between scatter, block and block-scatter
/// arrays, a 2-D (block, scatter) clause and periodic redistributions;
/// reference by plain loops.
Instance remap_instance(std::uint64_t seed, i64 n, i64 rounds);
/// A serve-mix program: verify::ProgramGen with raised max_clauses, or
/// a wide mod-rotate program; reference by a direct in-process run.
Instance mix_instance(std::uint64_t seed, bool wide);
/// The examples/programs shapes (0 relax, 1 rotate, 2 views) with
/// seeded sizes and shifts; reference by a direct in-process run.
Instance cli_instance(std::uint64_t seed, int shape);

/// Ramp image 0,1,2,...,n-1.
std::vector<double> ramp(i64 n);

// ---- solve.cpp ---------------------------------------------------------

enum class Target { Seq, Dist, Shared, Native, Proc };
const char* target_name(Target t);

struct SolveConfig {
  std::string cache_dir;    // private JIT/native module cache
  std::string vcalc;        // worker binary for the proc target
  std::string channel_dir;  // proc channel directory (reused per solve)
};

/// One solve: source text to gathered result in a fresh EngineContext.
struct SolveOut {
  bool ok = false;
  std::string error;
  std::map<std::string, std::vector<double>> arrays;
  double total_ms = 0, construct_ms = 0, run_ms = 0, gather_ms = 0;
  vcal::rt::DistStats dist;
  vcal::rt::SharedStats shared;
  vcal::rt::PathCounters paths;
  vcal::rt::CommStats comm;
  vcal::spmd::JitStats jit;
  i64 plan_hits = 0, plan_misses = 0;
  double native_compile_ms = 0;
};

SolveOut solve(const Instance& inst, Target t, const SolveConfig& cfg);
/// Compares a solve's arrays with the reference, bit for bit.
bool matches(const Instance& inst,
             const std::map<std::string, std::vector<double>>& got,
             std::string* why);
/// "name=value ..." rendering of the deterministic counters of a solve,
/// used to check that repeated solves agree exactly.
std::string count_signature(const SolveOut& s, Target t);
/// The DistStats part of count_signature (dist and proc must agree).
std::string dist_signature(const vcal::rt::DistStats& d);

/// Times the front end, the Table I optimizer and the clause planner on
/// every clause of a program, walking redistributions in order.
struct PlanProbe {
  double parse_ms = 0;      // lang::parse
  double translate_ms = 0;  // lang::translate
  double gen_ms = 0;        // all OwnerComputePlan::build calls
  double plan_ms = 0;       // all ClausePlan::build calls
  i64 clauses = 0;
  i64 lhs_plans = 0;        // LHS-dimension plans built
  i64 closed_form = 0;      // ... whose method is not run-time resolution
};
PlanProbe probe_plans(const std::string& source);

// ---- serve_loop.cpp ----------------------------------------------------

struct ServeReq {
  const Instance* inst = nullptr;
  vcal::serve::Target target = vcal::serve::Target::Dist;
  double due_ms = 0;  // offset from the start of the schedule
};

struct ServeLoopOut {
  std::vector<double> latency_ms;  // from due time; +inf when failed
  std::vector<double> send_lag_ms;
  std::vector<double> compile_ms;  // server compile time of misses
  bool fell_behind = false;
  bool backlog_grew = false;
  double wall_s = 0;
};

/// Sends `reqs` on their schedule over `sessions` client sessions and
/// checks every result against its reference.
ServeLoopOut serve_loop(const std::string& address,
                        const std::vector<ServeReq>& reqs, int sessions,
                        Tally& tally);

// ---- cli_runs.cpp ------------------------------------------------------

struct ProcRun {
  int status = -1;  // exit code, or -1 when the process did not exit
  std::string out;  // captured stdout
  double ms = 0;    // spawn to reaped exit
};

/// Spawns argv[0] (no shell), captures stdout, waits for it to exit.
ProcRun run_process(const std::vector<std::string>& argv);
/// vcalc argv for one solve of `inst` (written to `file`) on `target`.
std::vector<std::string> vcalc_argv(const std::string& vcalc,
                                    const Instance& inst,
                                    const std::string& file, Target target,
                                    const std::string& cache_dir);
/// What `vcalc --print` prints for the reference outputs.
std::string expected_print(const Instance& inst);

// ---- workloads.cpp -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string vcalc;  // the built vcalc binary
  std::string work;   // private scratch directory (removed by the caller)
};

struct Report {
  Tally tally;
  std::map<std::string, double> metrics;  // end-to-end and per-layer
};

bool known_workload(const std::string& name);
Report run_workload(const Options& opt);

}  // namespace perfbench
