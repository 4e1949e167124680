// vcalc — command-line driver for the V-cal compiler and simulators.
//
//   vcalc [options] program.vexl
//
// Run `vcalc --help` for the full flag reference. Exit status: 0 on
// success, 1 on usage errors, 2 on compile errors, 3 on execution
// faults (including conformance failures).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "emit/c_mpi.hpp"
#include "emit/c_openmp.hpp"
#include "emit/paper_notation.hpp"
#include "lang/translate.hpp"
#include "obs/calibrate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "proc/proc_machine.hpp"
#include "proc/worker.hpp"
#include "rt/dist_machine.hpp"
#include "rt/native_machine.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "vcalc_flags.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace vcal;

struct Options {
  std::string target = "dist";
  std::string emit;
  bool naive = false;
  bool elide_barriers = false;
  bool stats = false;
  bool verify = false;
  bool proc_axis = false;
  bool native_axis = false;
  bool timeline = false;
  bool calibrate = false;
  int iters = 100;
  std::uint64_t seed = 1;
  rt::EngineOptions engine;
  std::string trace_path;  // --trace FILE: Chrome trace_event JSON out
  std::vector<std::string> init;
  std::vector<std::string> print;
  std::string file;
  std::string serve_addr;    // --serve ADDR ("auto" = private UDS)
  bool serve_mode = false;
  int serve_executors = 0;
  int serve_inflight = 8;
  int serve_cache_entries = 0;  // 0 = unbounded
  std::string connect_addr;  // --connect ADDR: client mode
  bool remote_metrics = false;
  bool remote_shutdown = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [options] program.vexl  (--help for the "
                       "flag reference)\n",
               argv0);
  return 1;
}

int run_verify(const Options& opt) {
  using vcal::verify::Oracle;
  if (!opt.file.empty()) {
    std::ifstream in(opt.file);
    if (!in) {
      std::fprintf(stderr, "vcalc: cannot open %s\n", opt.file.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      vcal::verify::CheckResult r =
          Oracle::check_source(buf.str(), opt.seed, opt.engine.jit,
                               opt.proc_axis, opt.native_axis);
      std::printf("verify %s: %s\n", opt.file.c_str(), r.str().c_str());
      return r.ok ? 0 : 3;
    } catch (const Error& e) {
      std::fprintf(stderr, "vcalc: %s\n", e.what());
      return 2;
    }
  }
  vcal::verify::OracleOptions oo;
  oo.iters = opt.iters;
  oo.seed = opt.seed;
  oo.jit_axis = opt.engine.jit;
  oo.proc_axis = opt.proc_axis;
  oo.native_axis = opt.native_axis;
  vcal::verify::OracleReport rep = Oracle::run_corpus(oo);
  std::printf("%s\n", rep.str().c_str());
  return rep.ok ? 0 : 3;
}

int run_calibrate(const Options& opt) {
  std::vector<std::pair<std::string, spmd::Program>> benches;
  try {
    if (!opt.file.empty()) {
      std::ifstream in(opt.file);
      if (!in) {
        std::fprintf(stderr, "vcalc: cannot open %s\n", opt.file.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      benches.emplace_back(opt.file, lang::compile(buf.str()));
    } else {
      benches = obs::builtin_calibration_benches();
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "vcalc: %s\n", e.what());
    return 2;
  }
  try {
    obs::CalibrationReport rep = obs::calibrate(benches);
    std::fputs(rep.str().c_str(), stdout);
  } catch (const Error& e) {
    std::fprintf(stderr, "vcalc: %s\n", e.what());
    return 3;
  }
  return 0;
}

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i);
  return v;
}

void dump(const std::string& name, const std::vector<double>& data) {
  std::printf("%s =", name.c_str());
  for (double v : data) std::printf(" %g", v);
  std::printf("\n");
}

int run_serve(const Options& opt) {
  serve::ServeOptions so;
  so.addr = opt.serve_addr == "auto" ? "" : opt.serve_addr;
  so.executors = opt.serve_executors;
  so.session_inflight = opt.serve_inflight;
  so.cache_entries = opt.serve_cache_entries;
  try {
    serve::Server server(so);
    server.start();
    std::printf("serving on %s\n", server.address().c_str());
    std::fflush(stdout);
    server.wait();
    server.stop();
  } catch (const Error& e) {
    std::fprintf(stderr, "vcalc: %s\n", e.what());
    return 3;
  }
  return 0;
}

int run_connect(const Options& opt, const char* argv0) {
  int code = 0;
  try {
    serve::Client client;
    client.connect(opt.connect_addr);
    if (!opt.file.empty()) {
      std::ifstream in(opt.file);
      if (!in) {
        std::fprintf(stderr, "vcalc: cannot open %s\n", opt.file.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      serve::RunRequest req;
      req.source = buf.str();
      if (opt.target == "dist") {
        req.target = serve::Target::Dist;
      } else if (opt.target == "shared") {
        req.target = serve::Target::Shared;
      } else if (opt.target == "seq") {
        req.target = serve::Target::Seq;
      } else {
        return usage(argv0);  // proc has no served form
      }
      req.build.force_runtime_resolution = opt.naive;
      req.engine = opt.engine;
      req.elide_barriers = opt.elide_barriers;
      for (const std::string& name : opt.init)
        req.inputs.push_back({name, /*ramp=*/true, {}});
      req.gather = opt.print;
      req.want_stats = opt.stats;
      serve::RunResult res = client.run(std::move(req));
      switch (res.status) {
        case serve::Status::Ok:
          for (const auto& [name, vals] : res.stores) dump(name, vals);
          if (opt.stats && !res.stats_line.empty())
            std::printf("stats: %s\n", res.stats_line.c_str());
          break;
        case serve::Status::CompileError:
          std::fprintf(stderr, "vcalc: %s\n", res.error.c_str());
          code = 2;
          break;
        default:
          std::fprintf(stderr, "vcalc: %s\n", res.error.c_str());
          code = 3;
          break;
      }
    }
    if (opt.remote_metrics) {
      std::string server_json, session_json;
      client.metrics(&server_json, &session_json);
      std::printf("server: %s\nsession: %s\n", server_json.c_str(),
                  session_json.c_str());
    }
    if (opt.remote_shutdown) client.shutdown_server();
  } catch (const Error& e) {
    std::fprintf(stderr, "vcalc: %s\n", e.what());
    return 3;
  }
  return code;
}

/// The `pool:` stats line: the fork-join counters of the pool a machine
/// ran its ranks on (none at --threads 1, which runs them inline).
void print_pool(const support::ThreadPool* pool) {
  if (pool == nullptr) return;
  obs::MetricsRegistry reg;
  obs::collect(reg, *pool);
  std::printf("pool: %s\n", reg.line().c_str());
}

/// Writes/prints the requested exports once the run finished. Returns
/// false (after a diagnostic) when the trace file cannot be written.
bool emit_trace(const Options& opt, const obs::Tracer* tracer) {
  if (tracer == nullptr) return true;
  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::fprintf(stderr, "vcalc: cannot write %s\n",
                   opt.trace_path.c_str());
      return false;
    }
    out << obs::chrome_trace_json(*tracer, opt.file);
  }
  if (opt.timeline) std::fputs(obs::timeline_text(*tracer).c_str(), stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: `vcalc --rank N --channel-dir PATH` (spawned by the
  // proc launcher) never touches the normal option surface.
  if (argc >= 2 && std::strcmp(argv[1], "--rank") == 0) {
    if (argc != 5 || std::strcmp(argv[3], "--channel-dir") != 0)
      return usage(argv[0]);
    return vcal::proc::worker_main(std::atoll(argv[2]), argv[4]);
  }
  Options opt;
  for (int k = 1; k < argc; ++k) {
    std::string arg = argv[k];
    if (arg == "-h") arg = "--help";
    if (arg.rfind("--", 0) != 0) {
      if (!opt.file.empty()) return usage(argv[0]);
      opt.file = arg;
      continue;
    }
    // Table-driven validation: the flag must exist in vcalc_flags.hpp
    // with the right argument shape before any handler runs, so the
    // parser and --help cannot drift.
    size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    const vcalc_cli::FlagSpec* spec = vcalc_cli::find_flag(name);
    if (spec == nullptr) return usage(argv[0]);
    const char* val = nullptr;
    if (spec->arg == vcalc_cli::FlagSpec::kInline) {
      if (eq == std::string::npos) return usage(argv[0]);
      val = arg.c_str() + eq + 1;
    } else if (eq != std::string::npos) {
      return usage(argv[0]);
    } else if (spec->arg == vcalc_cli::FlagSpec::kNext) {
      if (k + 1 >= argc) return usage(argv[0]);
      val = argv[++k];
    }
    if (name == "--help") {
      std::fputs(vcalc_cli::help_text().c_str(), stdout);
      return 0;
    } else if (name == "--target") {
      opt.target = val;
    } else if (name == "--emit") {
      opt.emit = val;
    } else if (name == "--naive") {
      opt.naive = true;
    } else if (name == "--elide-barriers") {
      opt.elide_barriers = true;
    } else if (name == "--stats") {
      opt.stats = true;
    } else if (name == "--verify") {
      opt.verify = true;
    } else if (name == "--proc") {
      opt.proc_axis = true;
    } else if (name == "--native") {
      opt.native_axis = true;
    } else if (name == "--calibrate") {
      opt.calibrate = true;
    } else if (name == "--timeline") {
      opt.timeline = true;
      opt.engine.trace = true;
    } else if (name == "--trace") {
      opt.trace_path = val;
      opt.engine.trace = true;
    } else if (name == "--threads") {
      opt.engine.threads = std::atoi(val);
      if (opt.engine.threads < 0) return usage(argv[0]);
    } else if (name == "--no-jit") {
      opt.engine.jit = false;
    } else if (name == "--jit-threshold") {
      opt.engine.jit_threshold = std::atoi(val);
      if (opt.engine.jit_threshold < 1) return usage(argv[0]);
    } else if (name == "--jit-cache-dir") {
      opt.engine.jit_cache_dir = val;
    } else if (name == "--jit-sync") {
      opt.engine.jit_sync = true;
    } else if (name == "--iters") {
      opt.iters = std::atoi(val);
      if (opt.iters <= 0) return usage(argv[0]);
    } else if (name == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (name == "--init") {
      opt.init.push_back(val);
    } else if (name == "--print") {
      opt.print.push_back(val);
    } else if (name == "--serve") {
      opt.serve_mode = true;
      opt.serve_addr = val;
    } else if (name == "--serve-executors") {
      opt.serve_executors = std::atoi(val);
      if (opt.serve_executors < 1) return usage(argv[0]);
    } else if (name == "--serve-inflight") {
      opt.serve_inflight = std::atoi(val);
      if (opt.serve_inflight < 1) return usage(argv[0]);
    } else if (name == "--serve-cache-entries") {
      opt.serve_cache_entries = std::atoi(val);
      if (opt.serve_cache_entries < 0) return usage(argv[0]);
    } else if (name == "--connect") {
      opt.connect_addr = val;
    } else if (name == "--remote-metrics") {
      opt.remote_metrics = true;
    } else if (name == "--remote-shutdown") {
      opt.remote_shutdown = true;
    } else {
      // In the table (--rank/--channel-dir outside worker position)
      // but meaningless here.
      return usage(argv[0]);
    }
  }
  if (opt.serve_mode) return run_serve(opt);
  if (!opt.connect_addr.empty()) return run_connect(opt, argv[0]);
  if (opt.verify) return run_verify(opt);
  if (opt.calibrate) return run_calibrate(opt);
  if (opt.file.empty()) return usage(argv[0]);

  std::ifstream in(opt.file);
  if (!in) {
    std::fprintf(stderr, "vcalc: cannot open %s\n", opt.file.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  spmd::Program program;
  try {
    program = lang::compile(buf.str());
  } catch (const Error& e) {
    std::fprintf(stderr, "vcalc: %s\n", e.what());
    return 2;
  }

  if (!opt.emit.empty()) {
    try {
      if (opt.emit == "mpi") {
        std::fputs(emit::emit_mpi_c(program).c_str(), stdout);
      } else if (opt.emit == "omp") {
        std::fputs(emit::emit_openmp_c(program).c_str(), stdout);
      } else if (opt.emit == "ir") {
        std::fputs(program.str().c_str(), stdout);
      } else if (opt.emit == "trace") {
        spmd::ArrayTable arrays = program.arrays;
        for (const spmd::Step& step : program.steps) {
          if (const auto* clause = std::get_if<prog::Clause>(&step)) {
            std::fputs(
                emit::trace_pipeline(*clause, arrays).str().c_str(),
                stdout);
            std::fputs("\n", stdout);
          } else {
            const auto& r = std::get<spmd::RedistStep>(step);
            std::printf("redistribute -> %s\n\n",
                        r.new_desc.str().c_str());
            arrays.insert_or_assign(r.array, r.new_desc);
          }
        }
      } else {
        return usage(argv[0]);
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "vcalc: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  gen::BuildOptions build;
  build.force_runtime_resolution = opt.naive;

  try {
    auto init_all = [&](auto& machine) {
      for (const std::string& name : opt.init) {
        auto it = program.arrays.find(name);
        if (it == program.arrays.end())
          throw SemanticError("--init names unknown array " + name);
        machine.load(name, ramp(it->second.total()));
      }
    };
    if (opt.target == "seq") {
      rt::SeqExecutor machine(program);
      // The sequential executor doesn't own a tracer (it has no
      // EngineOptions); attach one here so --trace/--timeline still work.
      std::unique_ptr<obs::Tracer> tracer;
      if (opt.engine.trace) {
        tracer = std::make_unique<obs::Tracer>(/*ranks=*/1,
                                               opt.engine.trace_capacity);
        machine.attach_tracer(tracer.get());
      }
      init_all(machine);
      machine.run();
      for (const std::string& name : opt.print)
        dump(name, machine.result(name));
      if (!emit_trace(opt, tracer.get())) return 1;
    } else if (opt.target == "shared") {
      rt::SharedMachine machine(program, build, {}, opt.elide_barriers,
                                opt.engine);
      init_all(machine);
      machine.run();
      for (const std::string& name : opt.print)
        dump(name, machine.result(name));
      if (opt.stats) {
        std::printf("stats: %s\n", machine.stats().str().c_str());
        std::printf("paths: %s\n", machine.path_counters().str().c_str());
        std::printf("comm: %s\n", machine.comm_stats().str().c_str());
        std::printf("jit: %s\n", machine.jit_stats().str().c_str());
        print_pool(machine.pool());
      }
      if (!emit_trace(opt, machine.tracer())) return 1;
    } else if (opt.target == "dist") {
      rt::DistMachine machine(program, build, {}, opt.engine);
      init_all(machine);
      machine.run();
      for (const std::string& name : opt.print)
        dump(name, machine.gather(name));
      if (opt.stats) {
        std::printf("stats: %s\n", machine.stats().str().c_str());
        std::printf("paths: %s\n", machine.path_counters().str().c_str());
        std::printf("comm: %s\n", machine.comm_stats().str().c_str());
        std::printf("jit: %s\n", machine.jit_stats().str().c_str());
        print_pool(machine.pool());
      }
      if (!emit_trace(opt, machine.tracer())) return 1;
    } else if (opt.target == "native") {
      rt::NativeMachine machine(program, opt.engine);
      init_all(machine);
      machine.run();
      for (const std::string& name : opt.print)
        dump(name, machine.result(name));
      if (opt.stats) {
        std::printf("stats: native=%d from-cache=%d compile-ms=%.3f "
                    "steps=%lld clauses=%lld redists=%lld messages=%lld\n",
                    machine.native() ? 1 : 0, machine.from_cache() ? 1 : 0,
                    machine.compile_ms(), machine.native_stats().steps,
                    machine.native_stats().clauses,
                    machine.native_stats().redists,
                    machine.native_stats().messages);
        if (!machine.native())
          std::printf("fallback: %s\n", machine.error().c_str());
      }
    } else if (opt.target == "proc") {
      proc::ProcMachine machine(buf.str(), build, {}, opt.engine);
      init_all(machine);
      machine.run();
      for (const std::string& name : opt.print)
        dump(name, machine.gather(name));
      if (opt.stats)
        std::printf("stats: %s\n", machine.stats().str().c_str());
      if (!opt.trace_path.empty()) {
        std::vector<obs::TraceLane> lanes;
        for (std::size_t r = 0; r < machine.rank_traces().size(); ++r)
          lanes.push_back({cat("rank ", r), machine.rank_traces()[r].events,
                           machine.rank_traces()[r].dropped});
        std::ofstream out(opt.trace_path);
        if (!out) {
          std::fprintf(stderr, "vcalc: cannot write %s\n",
                       opt.trace_path.c_str());
          return 1;
        }
        out << obs::chrome_trace_json(lanes, opt.file);
      }
    } else {
      return usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "vcalc: %s\n", e.what());
    return 3;
  }
  return 0;
}
