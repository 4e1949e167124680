#include "verify/program_gen.hpp"

#include "support/format.hpp"

namespace vcal::verify {

std::string GeneratedProgram::source() const {
  std::string out;
  for (const std::string& d : decls) out += d + "\n";
  for (const std::string& s : stmts) out += s + "\n";
  return out;
}

ProgramGen::ProgramGen(std::uint64_t seed, GenOptions opts)
    : rng_(seed), opts_(opts), seed_(seed) {}

GeneratedProgram ProgramGen::next() {
  GeneratedProgram gp =
      (opts_.allow_2d && rng_.chance(0.3)) ? gen_2d() : gen_1d();
  gp.seed = seed_;
  return gp;
}

std::string ProgramGen::dist_1d(bool allow_replicated) {
  switch (rng_.uniform(0, allow_replicated ? 3 : 2)) {
    case 0:
      return "block";
    case 1:
      return "scatter";
    case 2:
      return cat("blockscatter(", rng_.uniform(1, 5), ")");
    default:
      return "replicated";
  }
}

// A read subscript that stays inside [0, n-1] for loop indices in
// [s, n-1-s]: plain i, a shift bounded by the budget s, or a mod wrap
// (always safe).
std::string ProgramGen::subscript(i64 n, i64 s) {
  switch (rng_.uniform(0, 2)) {
    case 0:
      return "i";
    case 1: {
      i64 c = s > 0 ? rng_.uniform(-s, s) : 0;
      if (c == 0) return "i";
      return c > 0 ? cat("i + ", c) : cat("i - ", -c);
    }
    default:
      return cat("(i + ", rng_.uniform(0, n - 1), ") mod ", n);
  }
}

GeneratedProgram ProgramGen::gen_1d() {
  GeneratedProgram gp;
  i64 n = rng_.uniform(8, opts_.max_n);
  i64 procs = rng_.uniform(1, opts_.max_procs);
  gp.decls.push_back(cat("processors ", procs, ";"));

  const char* names[3] = {"A", "B", "C"};
  std::vector<std::string> dists;
  std::vector<bool> halo(3, false);
  for (int a = 0; a < 3; ++a) {
    std::string d = dist_1d(/*allow_replicated=*/true);
    std::string overlap;
    if (d == "block" && opts_.allow_halo && rng_.chance(0.25)) {
      overlap = cat(" overlap(", rng_.uniform(1, 2), ")");
      halo[static_cast<std::size_t>(a)] = true;
    }
    dists.push_back(d);
    gp.decls.push_back(cat("array ", names[a], "[0:", n - 1, "];"));
    gp.decls.push_back(
        cat("distribute ", names[a], " ", d, overlap, ";"));
  }

  int clauses = static_cast<int>(rng_.uniform(1, opts_.max_clauses));
  for (int k = 0; k < clauses; ++k) {
    const char* lhs = names[rng_.uniform(0, 2)];
    const char* rhs1 = names[rng_.uniform(0, 2)];
    const char* rhs2 = names[rng_.uniform(0, 2)];
    // Shift budget: the loop range [s, n-1-s] keeps every +-s shift in
    // bounds (n >= 8, so the range is never empty).
    i64 s = rng_.uniform(0, 2);
    i64 lo = s, hi = n - 1 - s;
    std::string guard =
        (opts_.allow_guards && rng_.chance(0.3))
            ? cat(" | ", rhs1, "[i] > ", rng_.uniform(0, 5))
            : "";
    std::string stmt = cat(
        "forall i in ", lo, ":", hi, guard, " do ", lhs, "[i",
        s ? cat(" - ", s) : "", "] := ", rhs1, "[", subscript(n, s),
        "]*0.5 + ", rhs2, "[", subscript(n, s), "] - ",
        rng_.uniform(0, 9), "; od");
    gp.stmts.push_back(stmt);
    if (rng_.chance(0.3)) {
      // Iterate the clause verbatim: a clause must execute again at one
      // layout before the communication-schedule executor replays it,
      // so without repetition the corpus would never cover the
      // executor half of that split.
      gp.stmts.push_back(stmt);
      gp.stmts.push_back(stmt);
    }
    if (opts_.allow_redistribute && rng_.chance(0.3)) {
      // Redistribute a random non-replicated, non-halo array (halo'd
      // buffers carry overlap regions a redistribution would discard).
      for (int t = 0; t < 3; ++t) {
        int a = static_cast<int>(rng_.uniform(0, 2));
        if (dists[static_cast<std::size_t>(a)] == "replicated" ||
            halo[static_cast<std::size_t>(a)])
          continue;
        std::string nd = dist_1d(/*allow_replicated=*/false);
        dists[static_cast<std::size_t>(a)] = nd;
        gp.stmts.push_back(cat("redistribute ", names[a], " ", nd, ";"));
        break;
      }
    }
  }
  return gp;
}

GeneratedProgram ProgramGen::gen_2d() {
  GeneratedProgram gp;
  i64 rows = rng_.uniform(4, 10);
  i64 cols = rng_.uniform(4, 10);
  i64 procs = rng_.uniform(1, opts_.max_procs);
  gp.decls.push_back(cat("processors ", procs, ";"));

  auto dist2d = [&]() -> std::string {
    auto one = [&]() -> std::string {
      switch (rng_.uniform(0, 3)) {
        case 0:
          return "block";
        case 1:
          return "scatter";
        case 2:
          return cat("blockscatter(", rng_.uniform(1, 3), ")");
        default:
          return "*";
      }
    };
    std::string a = one(), b = one();
    if (a == "*" && b == "*") a = "block";  // keep it distributed
    return "(" + a + ", " + b + ")";
  };

  for (const char* name : {"M", "N"}) {
    gp.decls.push_back(
        cat("array ", name, "[0:", rows - 1, ", 0:", cols - 1, "];"));
    gp.decls.push_back(cat("distribute ", name, " ", dist2d(), ";"));
  }

  i64 si = rng_.uniform(0, 1), sj = rng_.uniform(0, 1);
  std::string isub = si ? "i - 1" : "i";
  std::string jsub =
      sj ? cat("(j + ", rng_.uniform(1, cols - 1), ") mod ", cols) : "j";
  gp.stmts.push_back(cat("forall i in ", si, ":", rows - 1,
                         ", j in 0:", cols - 1, " do M[i, j] := N[", isub,
                         ", ", jsub, "]*0.5 + ", rng_.uniform(0, 5),
                         "; od"));
  if (opts_.allow_redistribute && rng_.chance(0.5)) {
    // Redistribute one matrix mid-program: the second clause must run
    // against the new layout (a plan-cache entry of its own on the
    // distributed machine).
    const char* target = rng_.chance(0.5) ? "M" : "N";
    gp.stmts.push_back(cat("redistribute ", target, " ", dist2d(), ";"));
  }
  // A second clause flowing M back into N.
  gp.stmts.push_back(cat("forall i in 0:", rows - 1, ", j in 0:",
                         cols - 1, " do N[i, j] := M[i, j] - 1; od"));
  return gp;
}

}  // namespace vcal::verify
