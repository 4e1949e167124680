// The single source of truth for vcalc's flag surface.
//
// The --help text is rendered from this table and the argument parser
// validates against it (a flag missing here is rejected even if a
// handler exists), so the two cannot drift: adding a flag means adding
// a row, and cli_test asserts every row appears in --help. Header-only
// so the test binary can include the table without linking the tool.
#pragma once

#include <cstring>
#include <string>
#include <vector>

namespace vcalc_cli {

struct FlagSpec {
  enum Arg {
    kNone,    // --stats
    kInline,  // --target=dist
    kNext,    // --init NAME
  };
  const char* name;     // including the leading "--"
  Arg arg;
  const char* metavar;  // "" when arg == kNone
  // Help body: lines separated by '\n', unindented. The renderer
  // places the first line beside the flag and the rest below it.
  const char* help;
};

struct FlagSection {
  const char* title;
  std::vector<FlagSpec> flags;
};

inline const std::vector<FlagSection>& sections() {
  static const std::vector<FlagSection> kSections = {
      {"execution",
       {
           {"--target", FlagSpec::kInline, "dist|shared|seq|proc|native",
            "machine to execute on (default dist);\n"
            "proc spawns one real OS process per\n"
            "rank, bit-identical to dist; native\n"
            "compiles the emitted OpenMP C and runs\n"
            "it (bytecode fallback without a\n"
            "toolchain — docs/runtime.md)"},
           {"--init", FlagSpec::kNext, "NAME",
            "fill NAME with the ramp 0,1,2,... before\n"
            "running (repeatable)"},
           {"--print", FlagSpec::kNext, "NAME",
            "dump NAME after the run (repeatable)"},
           {"--stats", FlagSpec::kNone, "", "print machine statistics"},
       }},
      {"engine knobs (speed only; results are bit-identical regardless)",
       {
           {"--threads", FlagSpec::kNext, "N",
            "execution lanes for per-rank loops:\n"
            "0 shared pool (default), 1 serial,\n"
            "k > 1 a private pool of k lanes"},
           {"--no-jit", FlagSpec::kNone, "",
            "never swap hot clause plans to natively\n"
            "compiled code; keep the bytecode kernels\n"
            "(also drops the jit axis from --verify)"},
           {"--jit-threshold", FlagSpec::kNext, "N",
            "clean executions of a cached plan before\n"
            "native compilation is armed (default 2)"},
           {"--jit-cache-dir", FlagSpec::kNext, "PATH",
            "content-addressed .so cache directory\n"
            "(default $TMPDIR/vcal-jit-cache-<uid>)"},
           {"--jit-sync", FlagSpec::kNone, "",
            "compile armed plans on the calling step\n"
            "instead of in the background (gives\n"
            "deterministic jit counters; benchmarks\n"
            "and tests use it)"},
           {"--naive", FlagSpec::kNone, "",
            "disable the Table I optimizations\n"
            "(run-time resolution baseline)"},
           {"--elide-barriers", FlagSpec::kNone, "",
            "footnote-1 barrier analysis (shared)"},
       }},
      {"observability",
       {
           {"--trace", FlagSpec::kNext, "FILE",
            "record per-rank events and write Chrome\n"
            "trace_event JSON to FILE (load it in\n"
            "about://tracing or Perfetto)"},
           {"--timeline", FlagSpec::kNone, "",
            "record events and print a plain-text\n"
            "per-rank timeline to stdout"},
           {"--calibrate", FlagSpec::kNone, "",
            "fit cost-model latency/bandwidth\n"
            "constants from traced runs of the\n"
            "built-in benchmarks (or program.vexl)\n"
            "and report per-phase prediction error"},
       }},
      {"serving (docs/serving.md)",
       {
           {"--serve", FlagSpec::kNext, "ADDR",
            "persistent compile-and-execute server:\n"
            "listen on ADDR (a UNIX socket path,\n"
            "host:port for TCP, or `auto` for a fresh\n"
            "socket in a private temp dir), print\n"
            "`serving on <addr>`, and run until a\n"
            "client sends shutdown; each connection\n"
            "is an isolated session with its own\n"
            "plan caches, traces, JIT modules, and a\n"
            "content-addressed compile cache"},
           {"--serve-executors", FlagSpec::kNext, "N",
            "executor threads draining the shared\n"
            "run queue (default 4)"},
           {"--serve-inflight", FlagSpec::kNext, "N",
            "per-session in-flight cap; requests\n"
            "beyond it are rejected immediately\n"
            "(default 8)"},
           {"--serve-cache-entries", FlagSpec::kNext, "N",
            "compile-cache capacity in entries;\n"
            "least-recently-used programs are\n"
            "evicted beyond it (default 0 =\n"
            "unbounded)"},
           {"--connect", FlagSpec::kNext, "ADDR",
            "run program.vexl through the server at\n"
            "ADDR instead of in-process (--init,\n"
            "--print, --stats, --target and engine\n"
            "knobs apply; proc target unsupported)"},
           {"--remote-metrics", FlagSpec::kNone, "",
            "with --connect: print the server-wide\n"
            "and session metrics JSON"},
           {"--remote-shutdown", FlagSpec::kNone, "",
            "with --connect: ask the server to shut\n"
            "down (after running program.vexl, if\n"
            "one was given)"},
       }},
      {"other modes",
       {
           {"--emit", FlagSpec::kInline, "mpi|omp|trace|ir",
            "print generated source / derivation\n"
            "instead of executing"},
           {"--verify", FlagSpec::kNone, "",
            "differential conformance mode: run the\n"
            "seeded random corpus (or the given\n"
            "program) through every machine and\n"
            "engine configuration, checking\n"
            "bit-identical results and statistics\n"
            "invariants, and every clause's comm\n"
            "schedule against a per-element\n"
            "reference (docs/testing.md)"},
           {"--iters", FlagSpec::kNext, "N",
            "corpus size for --verify (default 100)"},
           {"--seed", FlagSpec::kNext, "S",
            "corpus seed for --verify (default 1);\n"
            "replay a reported failure with\n"
            "--iters 1 --seed <failing seed>"},
           {"--proc", FlagSpec::kNone, "",
            "add the multi-process backend to the\n"
            "--verify engine matrix (spawns real\n"
            "worker processes; Linux only)"},
           {"--native", FlagSpec::kNone, "",
            "add the whole-program native backend\n"
            "to the --verify engine matrix: emitted\n"
            "OpenMP C compiled, dlopened, and run,\n"
            "bit-identical final stores required\n"
            "(skipped without a toolchain)"},
           {"--rank", FlagSpec::kNext, "N",
            "internal: run as worker rank N of a\n"
            "proc job (spawned by --target=proc,\n"
            "not by hand; requires --channel-dir)"},
           {"--channel-dir", FlagSpec::kNext, "D",
            "internal: channel directory of the\n"
            "staged proc job (with --rank)"},
           {"--help", FlagSpec::kNone, "", "this text"},
       }},
  };
  return kSections;
}

/// Looks `name` (the "--flag" part, no "=value") up in the table.
inline const FlagSpec* find_flag(const std::string& name) {
  for (const FlagSection& sec : sections())
    for (const FlagSpec& f : sec.flags)
      if (name == f.name) return &f;
  return nullptr;
}

/// Renders the full --help text from the table.
inline std::string help_text() {
  constexpr int kCol = 30;  // help-body column
  std::string out =
      "usage: vcalc [options] program.vexl\n"
      "       vcalc --verify [--iters N] [--seed S] [program.vexl]\n"
      "       vcalc --calibrate [program.vexl]\n"
      "       vcalc --serve ADDR [--serve-executors N] "
      "[--serve-inflight N]\n"
      "       vcalc --connect ADDR [options] [program.vexl]\n";
  for (const FlagSection& sec : sections()) {
    out += "\n";
    out += sec.title;
    out += ":\n";
    for (const FlagSpec& f : sec.flags) {
      std::string decl = "  ";
      decl += f.name;
      if (f.arg == FlagSpec::kInline) {
        decl += "=";
        decl += f.metavar;
      } else if (f.arg == FlagSpec::kNext) {
        decl += " ";
        decl += f.metavar;
      }
      std::string body = f.help;
      size_t pos = 0;
      bool first = true;
      while (pos <= body.size()) {
        size_t nl = body.find('\n', pos);
        std::string line = body.substr(
            pos, nl == std::string::npos ? std::string::npos : nl - pos);
        if (first && static_cast<int>(decl.size()) < kCol - 1) {
          decl.append(static_cast<size_t>(kCol) - decl.size(), ' ');
          out += decl + line + "\n";
        } else {
          if (first) out += decl + "\n";
          out += std::string(kCol, ' ') + line + "\n";
        }
        first = false;
        if (nl == std::string::npos) break;
        pos = nl + 1;
      }
    }
  }
  out +=
      "\n"
      "exit status: 0 success, 1 usage, 2 compile error, 3 execution or\n"
      "conformance failure\n";
  return out;
}

}  // namespace vcalc_cli
