// One solve per target, timed at the public calls of each layer, and the
// planner probe.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "fn/classify.hpp"
#include "gen/optimizer.hpp"
#include "lang/parser.hpp"
#include "lang/translate.hpp"
#include "proc/proc_machine.hpp"
#include "rt/native_machine.hpp"
#include "rt/seq_executor.hpp"
#include "spmd/clause_plan.hpp"
#include "support/format.hpp"

namespace perfbench {

using namespace vcal;

const char* target_name(Target t) {
  switch (t) {
    case Target::Seq: return "seq";
    case Target::Dist: return "dist";
    case Target::Shared: return "shared";
    case Target::Native: return "native";
    case Target::Proc: return "proc";
  }
  return "?";
}

namespace {

rt::EngineOptions engine_options(const SolveConfig& cfg) {
  rt::EngineOptions e;
  // Synchronous JIT swaps make the dispatch path of every solve the same,
  // so the path counters repeat exactly; with the module cache warm the
  // swap costs a dlopen, not a compile.
  e.jit_sync = true;
  e.jit_cache_dir = cfg.cache_dir;
  return e;
}

// Constructs (and loads), runs and gathers one machine, one span each.
template <typename Make, typename Read>
auto drive(const Instance& inst, SolveOut& out, const std::string& tn,
           Make make, Read read) {
  Span construct("rt.construct." + tn);
  auto m = make();
  for (const Input& in : inst.inputs) m->load(in.name, in.values);
  out.construct_ms = construct.stop();
  {
    Span run("rt.run." + tn);
    m->run();
    out.run_ms = run.stop();
  }
  Span gather("rt.gather." + tn);
  for (const std::string& name : inst.outputs) out.arrays[name] = read(*m, name);
  out.gather_ms = gather.stop();
  return m;
}

std::string full(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

SolveOut solve(const Instance& inst, Target t, const SolveConfig& cfg) {
  SolveOut out;
  const std::string tn = target_name(t);
  Span total("solve." + tn);
  try {
    const rt::EngineOptions engine = engine_options(cfg);
    if (t == Target::Proc) {
      // The launcher compiles the source itself (and so does each worker).
      proc::ProcOptions po;
      po.worker_path = cfg.vcalc;
      po.channel_dir = cfg.channel_dir;
      auto m = drive(
          inst, out, tn,
          [&] {
            return std::make_unique<proc::ProcMachine>(inst.source,
                                                       gen::BuildOptions{},
                                                       rt::CostModel{}, engine, po);
          },
          [](proc::ProcMachine& pm, const std::string& n) { return pm.gather(n); });
      out.dist = m->stats();
    } else {
      lang::AProgram ast;
      {
        Span s("lang.parse");
        ast = lang::parse(inst.source);
      }
      spmd::Program program;
      {
        Span s("lang.translate");
        program = lang::translate(ast);
      }
      auto ctx = std::make_shared<rt::EngineContext>();
      switch (t) {
        case Target::Dist: {
          auto m = drive(
              inst, out, tn,
              [&] {
                return std::make_unique<rt::DistMachine>(
                    program, gen::BuildOptions{}, rt::CostModel{}, engine, ctx);
              },
              [](rt::DistMachine& dm, const std::string& n) { return dm.gather(n); });
          out.dist = m->stats();
          out.paths = m->path_counters();
          out.comm = m->comm_stats();
          out.jit = m->jit_stats();
          out.plan_hits = m->plan_cache().hits();
          out.plan_misses = m->plan_cache().misses();
          break;
        }
        case Target::Shared: {
          auto m = drive(
              inst, out, tn,
              [&] {
                return std::make_unique<rt::SharedMachine>(
                    program, gen::BuildOptions{}, rt::CostModel{}, false, engine, ctx);
              },
              [](rt::SharedMachine& sm, const std::string& n) { return sm.result(n); });
          out.shared = m->stats();
          out.paths = m->path_counters();
          out.comm = m->comm_stats();
          out.jit = m->jit_stats();
          out.plan_hits = m->plan_cache().hits();
          out.plan_misses = m->plan_cache().misses();
          break;
        }
        case Target::Native: {
          auto m = drive(
              inst, out, tn,
              [&] { return std::make_unique<rt::NativeMachine>(program, engine, ctx); },
              [](rt::NativeMachine& nm, const std::string& n) { return nm.result(n); });
          out.native_compile_ms = m->compile_ms();
          if (!m->native()) throw std::runtime_error("native fallback: " + m->error());
          break;
        }
        case Target::Seq: {
          drive(
              inst, out, tn,
              [&] { return std::make_unique<rt::SeqExecutor>(program); },
              [](rt::SeqExecutor& se, const std::string& n) { return se.result(n); });
          break;
        }
        case Target::Proc:
          break;
      }
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = cat(tn, " solve of ", inst.label, ": ", e.what());
  }
  out.total_ms = total.stop();
  return out;
}

bool matches(const Instance& inst,
             const std::map<std::string, std::vector<double>>& got,
             std::string* why) {
  for (const auto& [name, want] : inst.expect) {
    auto it = got.find(name);
    if (it == got.end()) {
      *why = cat(inst.label, ": array ", name, " missing");
      return false;
    }
    if (it->second.size() != want.size()) {
      *why = cat(inst.label, ": array ", name, " has ", it->second.size(),
                 " elements, expected ", want.size());
      return false;
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      // Bit-for-bit: the same expression order must give the same double.
      if (std::memcmp(&it->second[k], &want[k], sizeof(double)) != 0) {
        *why = cat(inst.label, ": ", name, "[", k, "] = ", full(it->second[k]),
                   ", reference ", full(want[k]));
        return false;
      }
    }
  }
  return true;
}

std::string dist_signature(const rt::DistStats& d) {
  return cat("messages=", d.messages, " bulk=", d.bulk_messages,
             " redist=", d.redist_messages, " local=", d.local_reads,
             " remote=", d.remote_reads, " iters=", d.iterations,
             " tests=", d.tests, " halo-msgs=", d.halo_messages,
             " halo-values=", d.halo_values, " halo-reads=", d.halo_reads,
             " steps=", d.steps, " sim-time=", full(d.sim_time));
}

std::string count_signature(const SolveOut& s, Target t) {
  std::string engine = cat(" paths: ", s.paths.str(), " comm: ", s.comm.str(),
                           " jit-hits=", s.jit.hits, " plan-hits=", s.plan_hits,
                           " plan-misses=", s.plan_misses);
  switch (t) {
    case Target::Dist: return dist_signature(s.dist) + engine;
    case Target::Proc: return dist_signature(s.dist);
    case Target::Shared:
      return cat("barriers=", s.shared.barriers, " iters=", s.shared.iterations,
                 " tests=", s.shared.tests, " sim-time=", full(s.shared.sim_time)) +
             engine;
    default: return "";
  }
}

PlanProbe probe_plans(const std::string& source) {
  PlanProbe probe;
  lang::AProgram ast;
  {
    Span s("lang.parse");
    ast = lang::parse(source);
    probe.parse_ms = s.stop();
  }
  spmd::Program program;
  {
    Span s("lang.translate");
    program = lang::translate(ast);
    probe.translate_ms = s.stop();
  }
  spmd::ArrayTable arrays = program.arrays;
  for (const spmd::Step& step : program.steps) {
    if (const auto* r = std::get_if<spmd::RedistStep>(&step)) {
      arrays.insert_or_assign(r->array, r->new_desc);
      continue;
    }
    const auto& clause = std::get<prog::Clause>(step);
    ++probe.clauses;
    {
      Span s("spmd.plan_build");
      spmd::ClausePlan::build(clause, arrays);
      probe.plan_ms += s.stop();
    }
    const decomp::ArrayDesc& lhs = arrays.at(clause.lhs_array);
    if (lhs.is_replicated()) continue;
    for (std::size_t d = 0; d < clause.lhs_subs.size(); ++d) {
      const prog::Subscript& sub = clause.lhs_subs[d];
      if (sub.loop_index < 0) continue;
      const int dim = static_cast<int>(d);
      // The same normalization ClausePlan::build applies: owner
      // arithmetic works on the 0-based image f(i) - lo.
      fn::IndexFn f = fn::IndexFn::affine(1, -lhs.lo(dim)).after(fn::classify(sub.expr));
      const prog::LoopDim& loop = clause.loops[static_cast<std::size_t>(sub.loop_index)];
      Span s("gen.owner_compute_plan");
      gen::OwnerComputePlan plan = gen::OwnerComputePlan::build(
          std::move(f), lhs.decomp().dim(dim), loop.lo, loop.hi);
      probe.gen_ms += s.stop();
      ++probe.lhs_plans;
      if (plan.method() != gen::Method::RuntimeResolution) ++probe.closed_form;
    }
  }
  return probe;
}

}  // namespace perfbench
