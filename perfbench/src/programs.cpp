// Workload programs, generated as vexl text from the seed, with their
// inputs and reference outputs.
//
// stencil and remap carry hand-written references: plain C++ loops with
// the same copy-in semantics and the same floating-point expression
// order as the program, so every target must match them bit for bit.
// The serve-mix and CLI-shape programs are references by a direct
// in-process DistMachine run (one lane, no JIT); the served or spawned
// run is then checked against it. SeqExecutor is never a reference.
#include "bench.hpp"
#include "lang/translate.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "verify/program_gen.hpp"

namespace perfbench {

using vcal::cat;
using vcal::Rng;

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = double(i);
  return v;
}

namespace {

// Seeded input values: small integers. The references repeat the
// program's expression order, so their rounding matches bit for bit.
std::vector<double> seeded(Rng& rng, i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<double>(rng.uniform(0, 1023));
  return v;
}

// Element updates per solve: the loop-nest size of every clause step.
void count_work(Instance& inst) {
  vcal::spmd::Program p = vcal::lang::compile(inst.source);
  inst.updates = 0;
  for (const vcal::spmd::Step& step : p.steps) {
    const auto* c = std::get_if<vcal::prog::Clause>(&step);
    if (c == nullptr) continue;
    i64 size = 1;
    for (const vcal::prog::LoopDim& l : c->loops) size *= l.hi - l.lo + 1;
    inst.updates += size;
  }
}

void reference_by_direct_run(Instance& inst) {
  vcal::spmd::Program p = vcal::lang::compile(inst.source);
  vcal::rt::EngineOptions e;
  e.threads = 1;
  e.jit = false;
  vcal::rt::DistMachine m(p, {}, {}, e);
  for (const Input& in : inst.inputs) m.load(in.name, in.values);
  m.run();
  for (const std::string& name : inst.outputs) inst.expect[name] = m.gather(name);
}

}  // namespace

Instance stencil_instance(std::uint64_t seed, i64 n, i64 steps) {
  Rng rng(seed);
  Instance inst;
  inst.label = cat("stencil n=", n, " steps=", steps);
  std::string& s = inst.source;
  s = cat("processors 4;\narray U[0:", n - 1, "];\narray V[0:", n - 1,
          "];\ndistribute U block overlap(1);\n"
          "distribute V block overlap(1);\n");
  for (i64 t = 0; t < steps; ++t) {
    const char* dst = t % 2 == 0 ? "V" : "U";
    const char* src = t % 2 == 0 ? "U" : "V";
    s += cat("forall i in 1:", n - 2, " do ", dst, "[i] := (", src,
             "[i-1] + ", src, "[i+1])/2; od\n");
  }
  std::vector<double> u = seeded(rng, n);
  std::vector<double> v = seeded(rng, n);
  inst.inputs = {{"U", u}, {"V", v}};
  inst.outputs = {"U", "V"};

  for (i64 t = 0; t < steps; ++t) {
    std::vector<double>& dst = t % 2 == 0 ? v : u;
    const std::vector<double>& src = t % 2 == 0 ? u : v;
    for (i64 i = 1; i <= n - 2; ++i) {
      auto k = static_cast<std::size_t>(i);
      dst[k] = (src[k - 1] + src[k + 1]) / 2;
    }
  }
  inst.expect = {{"U", u}, {"V", v}};
  count_work(inst);
  return inst;
}

Instance remap_instance(std::uint64_t seed, i64 n, i64 rounds) {
  // The seed draws the shifts and the inputs; the shapes that decide
  // which plans apply (stride 3, block size 16, M's extent) stay fixed,
  // so every seed exercises the same mechanisms at the same cost.
  Rng rng(seed);
  const i64 r = 64;  // M is r x r
  const i64 k1 = rng.uniform(1, n - 1);
  const i64 k2 = rng.uniform(1, n - 1);
  const i64 k3 = rng.uniform(1, r - 1);
  const i64 a = 3;
  const i64 c = rng.uniform(0, 9);
  const i64 b = 16;
  Instance inst;
  inst.label = cat("remap n=", n, " rounds=", rounds);
  std::string& s = inst.source;
  s = cat("processors 4;\narray A[0:", n - 1, "];\narray B[0:", n - 1,
          "];\narray C[0:", n - 1, "];\narray M[0:", r - 1, ", 0:", r - 1,
          "];\ndistribute A scatter;\ndistribute B block;\n",
          "distribute C blockscatter(", b, ");\n",
          "distribute M (block, scatter);\n");
  for (i64 k = 0; k < rounds; ++k) {
    s += cat("forall i in 0:", n - 1, " do A[i] := (B[(i + ", k1, ") mod ",
             n, "] + C[i])/2; od\n");
    s += cat("forall i in 0:", n - 1, " do C[i] := (A[(", a, "*i + ", c,
             ") mod ", n, "] + B[i])/2; od\n");
    s += cat("forall i in 0:", n - 1, " do B[i] := (C[(i + ", k2, ") mod ",
             n, "] + A[i])/2; od\n");
    s += cat("forall i in 0:", r - 1, ", j in 0:", r - 1,
             " do M[i, j] := (M[j, i] + B[i])/2; od\n");
    s += cat("forall i in 0:", r - 1, " do A[i] := (A[i] + M[i, (i + ", k3,
             ") mod ", r, "])/2; od\n");
    if (k % 3 == 2)
      s += cat("redistribute B ", (k / 3) % 2 == 0 ? "scatter" : "block",
               ";\n");
  }
  auto fill = [&](i64 len) { return seeded(rng, len); };
  std::vector<double> av = fill(n), bv = fill(n), cv = fill(n), mv = fill(r * r);
  inst.inputs = {{"A", av}, {"B", bv}, {"C", cv}, {"M", mv}};
  inst.outputs = {"A", "B", "C", "M"};

  auto at = [](std::vector<double>& v, i64 i) -> double& {
    return v[static_cast<std::size_t>(i)];
  };
  // Clauses 1-3 and 5 never read their target at another index, so they
  // update in place; clause 4 reads M transposed and needs the copy-in.
  for (i64 k = 0; k < rounds; ++k) {
    for (i64 i = 0; i < n; ++i) at(av, i) = (at(bv, (i + k1) % n) + at(cv, i)) / 2;
    for (i64 i = 0; i < n; ++i) at(cv, i) = (at(av, (a * i + c) % n) + at(bv, i)) / 2;
    for (i64 i = 0; i < n; ++i) at(bv, i) = (at(cv, (i + k2) % n) + at(av, i)) / 2;
    std::vector<double> old = mv;
    for (i64 i = 0; i < r; ++i)
      for (i64 j = 0; j < r; ++j) at(mv, i * r + j) = (at(old, j * r + i) + at(bv, i)) / 2;
    for (i64 i = 0; i < r; ++i)
      at(av, i) = (at(av, i) + at(mv, i * r + (i + k3) % r)) / 2;
  }
  inst.expect = {{"A", av}, {"B", bv}, {"C", cv}, {"M", mv}};
  count_work(inst);
  return inst;
}

Instance mix_instance(std::uint64_t seed, bool wide) {
  Instance inst;
  inst.ramp = true;
  if (wide) {
    // The serve_throughput shape: each clause sums mod-rotate reads of
    // the other array over a two-element range, so compile work dwarfs
    // execution.
    Rng rng(seed);
    const i64 n = rng.uniform(8, 32);
    const i64 clauses = rng.uniform(24, 48);
    inst.label = cat("wide seed=", seed, " n=", n, " clauses=", clauses);
    inst.source = cat("processors 4;\narray A[0:", n - 1, "];\narray B[0:",
                      n - 1, "];\ndistribute A block;\ndistribute B scatter;\n");
    for (i64 k = 0; k < clauses; ++k) {
      const char* dst = k % 2 == 0 ? "A" : "B";
      const char* from = k % 2 == 0 ? "B" : "A";
      inst.source += cat("forall i in 0:1 do ", dst, "[i] := ", rng.uniform(1, 99));
      for (i64 t = 0; t < 8; ++t)
        inst.source += cat(" + ", from, "[(i + ", rng.uniform(1, n - 1), ") mod ", n, "]");
      inst.source += "; od\n";
    }
  } else {
    vcal::verify::GenOptions opts;
    opts.max_clauses = 16;
    opts.max_procs = 4;
    // A served dist program that redistributes returns wrong stores when
    // its session runs it again (remap covers redistribution).
    opts.allow_redistribute = false;
    vcal::verify::ProgramGen gen(seed, opts);
    inst.source = gen.next().source();
    inst.label = cat("programgen seed=", seed);
  }
  vcal::spmd::Program p = vcal::lang::compile(inst.source);
  for (const auto& [name, desc] : p.arrays) {
    inst.inputs.push_back({name, ramp(desc.total())});
    inst.outputs.push_back(name);
  }
  reference_by_direct_run(inst);
  count_work(inst);
  return inst;
}

Instance cli_instance(std::uint64_t seed, int shape) {
  Rng rng(seed);
  Instance inst;
  inst.ramp = true;
  std::string& s = inst.source;
  if (shape == 0) {
    const i64 n = rng.uniform(24, 48);
    inst.label = cat("relax n=", n);
    s = cat("processors 4;\narray U[0:", n - 1, "];\narray V[0:", n - 1,
            "];\ndistribute U block overlap(1);\ndistribute V block;\n",
            "forall i in 1:", n - 2, " do V[i] := (U[i-1] + U[i+1])/2; od\n",
            "forall i in 1:", n - 2, " do U[i] := (V[i-1] + V[i+1])/2; od\n");
    inst.inputs = {{"U", ramp(n)}};
    inst.outputs = {"U", "V"};
  } else if (shape == 1) {
    const i64 n = rng.uniform(16, 40);
    inst.label = cat("rotate n=", n);
    s = cat("processors 4;\narray A[0:", n - 1, "];\narray B[0:", n - 1,
            "];\ndistribute A scatter;\ndistribute B block;\n",
            "forall i in 0:", n - 1, " do A[i] := B[(i + ",
            rng.uniform(1, n - 1), ") mod ", n, "]; od\n");
    inst.inputs = {{"B", ramp(n)}};
    inst.outputs = {"A"};
  } else {
    const i64 n = rng.uniform(16, 32);
    const i64 m = rng.uniform(6, 10);
    inst.label = cat("views n=", n, " m=", m);
    s = cat("processors 4;\narray A[0:", n - 1, "];\narray M[0:", m - 1,
            ", 0:", m - 1, "];\ndistribute A scatter;\n",
            "distribute M (block, scatter);\n",
            "view Rot[0:", n - 1, "] = A[(v + ", rng.uniform(1, n - 1),
            ") mod ", n, "];\n", "view Diag[0:", m - 1, "] = M[t, t];\n",
            "view Rot2[0:", n - 1, "] = Rot[(w + ", rng.uniform(1, n - 1),
            ") mod ", n, "];\n", "forall i in 0:", n - 1,
            " do Rot[i] := i; od\n", "forall i in 0:", m - 1,
            " do Diag[i] := Rot2[i]*10; od\n");
    inst.inputs = {{"M", ramp(m * m)}};
    inst.outputs = {"A", "M"};
  }
  reference_by_direct_run(inst);
  count_work(inst);
  return inst;
}

}  // namespace perfbench
