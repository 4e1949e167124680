// Tests for spmd/kernel: bytecode compilation parity with the tree
// interpreter, affine subscript detection, strided-run analysis, and the
// allocation discipline of the fused fast path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <vector>

#include "lang/translate.hpp"
#include "rt/dist_machine.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "spmd/clause_plan.hpp"
#include "spmd/kernel.hpp"

// Global allocation counter (g_new_calls / g_count_allocs). Each
// vcal_test is its own binary, so the replaced operators affect no other
// suite.
#include "counting_alloc.hpp"

namespace vcal::spmd {
namespace {

using decomp::ArrayDesc;
using decomp::Decomp1D;
using decomp::DecompND;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::vector<double> iota(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = static_cast<double>(i);
  return v;
}

// --- bytecode ---------------------------------------------------------

// One expression exercising every Expr::Kind: Number, Ref, Loop, Add,
// Sub, Mul, Div, Neg, nested deep enough that evaluation order matters
// for doubles.
prog::ExprPtr all_kinds_expr() {
  using namespace prog;
  return neg(add(mul(ref(0), loop_var(0)),
                 divide(sub(number(1.25), ref(1)),
                        add(loop_var(1), number(0.5)))));
}

TEST(CompiledExpr, MatchesInterpreterBitForBit) {
  prog::ExprPtr e = all_kinds_expr();
  CompiledExpr ce = CompiledExpr::compile(e);
  std::vector<double> stack(static_cast<std::size_t>(ce.stack_need()));
  for (double r0 : {0.0, 1.0, -3.75, 1e300, -1e-300}) {
    for (double r1 : {0.0, 2.5, -0.1}) {
      for (i64 i : {-2, 0, 7}) {
        for (i64 j : {-1, 0, 5}) {
          std::vector<double> refs = {r0, r1};
          std::vector<i64> loops = {i, j};
          double want = prog::eval(e, refs, loops);
          double got = ce.eval(refs.data(), loops.data(), stack.data());
          EXPECT_TRUE(same_bits(want, got))
              << "r0=" << r0 << " r1=" << r1 << " i=" << i << " j=" << j
              << " want=" << want << " got=" << got;
        }
      }
    }
  }
}

TEST(CompiledExpr, DivisionByZeroMatchesIEEEInterpreter) {
  using namespace prog;
  // x / y for (1,0) -> inf, (-1,0) -> -inf, (0,0) -> NaN; all must carry
  // the interpreter's exact bit patterns.
  ExprPtr e = divide(ref(0), ref(1));
  CompiledExpr ce = CompiledExpr::compile(e);
  std::vector<double> stack(static_cast<std::size_t>(ce.stack_need()));
  for (auto [x, y] : std::vector<std::pair<double, double>>{
           {1.0, 0.0}, {-1.0, 0.0}, {0.0, 0.0}, {1.0, -0.0}}) {
    std::vector<double> refs = {x, y};
    double want = prog::eval(e, refs, {});
    double got = ce.eval(refs.data(), nullptr, stack.data());
    EXPECT_TRUE(same_bits(want, got)) << x << "/" << y;
  }
  std::vector<double> nan_refs = {0.0, 0.0};
  EXPECT_TRUE(
      std::isnan(ce.eval(nan_refs.data(), nullptr, stack.data())));
}

TEST(CompiledExpr, EvalPerformsNoAllocation) {
  CompiledExpr ce = CompiledExpr::compile(all_kinds_expr());
  std::vector<double> stack(static_cast<std::size_t>(ce.stack_need()));
  double refs[2] = {1.5, -2.0};
  i64 loops[2] = {3, 4};
  g_new_calls = 0;
  g_count_allocs = true;
  double acc = 0.0;
  for (int k = 0; k < 1000; ++k) acc += ce.eval(refs, loops, stack.data());
  g_count_allocs = false;
  EXPECT_EQ(g_new_calls.load(), 0) << "acc=" << acc;
}

TEST(CompiledGuard, AllComparisonsMatchInterpreter) {
  using prog::Guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (Guard::Cmp cmp : {Guard::Cmp::LT, Guard::Cmp::LE, Guard::Cmp::GT,
                         Guard::Cmp::GE, Guard::Cmp::EQ, Guard::Cmp::NE}) {
    Guard g{cmp, prog::ref(0), prog::ref(1)};
    CompiledGuard cg{CompiledExpr::compile(g.lhs),
                     CompiledExpr::compile(g.rhs), cmp};
    double stack[4];
    for (double a : {-1.0, 0.0, 2.0, nan, inf}) {
      for (double b : {-1.0, 0.0, 2.0, nan, -inf}) {
        std::vector<double> refs = {a, b};
        EXPECT_EQ(g.holds(refs, {}),
                  cg.holds(refs.data(), nullptr, stack))
            << "cmp=" << static_cast<int>(cmp) << " a=" << a << " b=" << b;
      }
    }
  }
}

// --- affine subscript detection --------------------------------------

prog::Clause one_ref_clause(fn::SymPtr lhs_sub, int lhs_loop,
                            fn::SymPtr ref_sub, int ref_loop) {
  prog::Clause c;
  c.loops = {{"i", 0, 9}};
  c.lhs_array = "A";
  c.lhs_subs = {{lhs_loop, std::move(lhs_sub)}};
  c.refs.push_back({"B", {{ref_loop, std::move(ref_sub)}}});
  c.rhs = prog::ref(0);
  return c;
}

TEST(ClauseKernel, AffineSubscriptsAreRecognized) {
  // A[2i+1] := B[10-i]: positive and negative strides.
  fn::SymPtr lhs = fn::add(fn::mul(fn::cnst(2), fn::var()), fn::cnst(1));
  fn::SymPtr ref = fn::sub(fn::cnst(10), fn::var());
  ClauseKernel k =
      ClauseKernel::compile(one_ref_clause(lhs, 0, ref, 0));
  ASSERT_TRUE(k.affine());
  ASSERT_EQ(k.lhs_subs().affine.size(), 1u);
  ASSERT_EQ(k.ref_subs(0).affine.size(), 1u);
  EXPECT_TRUE(k.lhs_subs().generic.empty());
  EXPECT_TRUE(k.ref_subs(0).generic.empty());
  for (i64 i = -5; i <= 15; ++i) {
    EXPECT_EQ(k.lhs_subs().affine[0].at(&i), fn::eval(lhs, i)) << i;
    EXPECT_EQ(k.ref_subs(0).affine[0].at(&i), fn::eval(ref, i)) << i;
  }
  EXPECT_EQ(k.lhs_subs().affine[0].loop, 0);
  EXPECT_EQ(k.lhs_subs().affine[0].a, 2);
  EXPECT_EQ(k.lhs_subs().affine[0].c, 1);
  EXPECT_EQ(k.ref_subs(0).affine[0].a, -1);
  EXPECT_EQ(k.ref_subs(0).affine[0].c, 10);
}

TEST(ClauseKernel, ConstantSubscriptPinsTheDimension) {
  ClauseKernel k = ClauseKernel::compile(
      one_ref_clause(fn::var(), 0, fn::cnst(5), -1));
  ASSERT_TRUE(k.affine());
  const AffineSub& s = k.ref_subs(0).affine[0];
  EXPECT_LT(s.loop, 0);
  i64 any = 123;
  EXPECT_EQ(s.at(&any), 5);
}

TEST(ClauseKernel, ModularSubscriptLowersToAModRecord) {
  // B[(i+6) mod 20]: a scatter-style wrap is not an affine progression,
  // so the kernel reports !affine() (no strided runs, no JIT) while the
  // bytecode and the subscript records stay usable. The wrap is an
  // inline {loop, a, c, z, d} record, not a tree walk.
  fn::SymPtr wrap = fn::mod(fn::add(fn::var(), fn::cnst(6)), fn::cnst(20));
  prog::Clause c = one_ref_clause(fn::var(), 0, wrap, 0);
  c.rhs = prog::mul(prog::ref(0), prog::number(3.0));
  ClauseKernel k = ClauseKernel::compile(c);
  EXPECT_FALSE(k.affine());
  EXPECT_TRUE(k.lhs_subs().mod.empty());
  EXPECT_TRUE(k.ref_subs(0).generic.empty());
  ASSERT_EQ(k.ref_subs(0).mod.size(), 1u);
  const ModSub& m = k.ref_subs(0).mod[0];
  EXPECT_EQ(m.dim, 0u);
  EXPECT_EQ(m.loop, 0);
  EXPECT_EQ(m.a, 1);
  EXPECT_EQ(m.c, 6);
  EXPECT_EQ(m.z, 20);
  EXPECT_EQ(m.d, 0);
  i64 i = 17;
  EXPECT_EQ(m.at(&i), 3);
  std::vector<double> stack(static_cast<std::size_t>(k.stack_need()));
  std::vector<double> refs = {7.0};
  EXPECT_TRUE(same_bits(k.rhs().eval(refs.data(), nullptr, stack.data()),
                        prog::eval(c.rhs, refs, {})));
}

TEST(ClauseKernel, GenericRecordsMatchTheReferenceSubscripts) {
  // Every non-affine shape the classifier knows (affine-mod with
  // negative operands and offsets, stride 3 and the nested-mod
  // simplification; floor division, monotone and opaque compositions)
  // in a 2-D clause whose dimensions mix affine, constant, mod and
  // generic records. subs_into must equal prog::eval_subs_into element
  // for element, over ranges that drive mod/div operands negative.
  using fn::add;
  using fn::cnst;
  using fn::intdiv;
  using fn::mod;
  using fn::mul;
  using fn::sub;
  using fn::var;
  const std::vector<fn::SymPtr> shapes = {
      mod(add(var(), cnst(6)), cnst(20)),             // affine-mod
      mod(sub(cnst(3), mul(cnst(2), var())), cnst(7)),  // negative operand
      add(mod(add(mul(cnst(3), var()), cnst(-4)), cnst(16)),
          cnst(-2)),                                  // a = 3, c, d < 0
      sub(mod(sub(var(), cnst(9)), cnst(8)), cnst(5)),  // d = -5 via sub
      mod(add(mod(var(), cnst(12)), cnst(5)), cnst(4)),  // nested mod
      intdiv(var(), cnst(3)),                         // floor division
      intdiv(sub(cnst(-5), var()), cnst(4)),          // negative dividend
      add(mod(var(), cnst(5)), intdiv(var(), cnst(2))),  // opaque
      mul(var(), var()),                              // monotone
  };
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    prog::Clause c;
    c.loops = {{"i", -12, 12}, {"j", -9, 9}};
    c.lhs_array = "A";
    c.lhs_subs = {{0, shapes[k]}, {1, fn::add(fn::var(), fn::cnst(2))}};
    c.refs.push_back({"B", {{1, shapes[k]}, {-1, cnst(4)}}});
    c.refs.push_back(
        {"C", {{0, fn::var()}, {1, shapes[(k + 1) % shapes.size()]}}});
    c.rhs = prog::add(prog::ref(0), prog::ref(1));
    ClauseKernel kern = ClauseKernel::compile(c);
    EXPECT_FALSE(kern.affine()) << k;
    // The affine-mod shapes take the inline record, never the tree.
    if (k < 5) {
      EXPECT_EQ(kern.lhs_subs().mod.size(), 1u) << k;
      EXPECT_TRUE(kern.lhs_subs().generic.empty()) << k;
    }
    std::vector<i64> got, want;
    for (i64 i = -12; i <= 12; ++i) {
      for (i64 j = -9; j <= 9; ++j) {
        std::vector<i64> vals = {i, j};
        ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), got);
        prog::eval_subs_into(c.lhs_subs, vals, want);
        EXPECT_EQ(got, want) << "lhs k=" << k << " i=" << i << " j=" << j;
        for (int r = 0; r < 2; ++r) {
          ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), got);
          prog::eval_subs_into(c.refs[static_cast<std::size_t>(r)].subs,
                               vals, want);
          EXPECT_EQ(got, want)
              << "ref " << r << " k=" << k << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

// Section 3.3's breakpoint split, piece by piece: along a run i = start +
// k*stride, each ModSub::piece holds value + j*a*stride, agrees with
// ModSub::at at every point, and ends exactly where (a*i + c) mod z
// wraps. On remap's shapes (n = 16384 and M's 64) and the affine-mod
// shapes above, over strides up to past a whole modulus.
TEST(ClauseKernel, ModPiecesFollowTheRecordAcrossEveryWrap) {
  using fn::add;
  using fn::cnst;
  using fn::mod;
  using fn::mul;
  using fn::sub;
  using fn::var;
  struct Shape {
    fn::SymPtr expr;
    i64 lo, hi;
  };
  const std::vector<Shape> shapes = {
      {mod(add(var(), cnst(5000)), cnst(16384)), 0, 16383},
      {mod(add(mul(cnst(3), var()), cnst(7)), cnst(16384)), 0, 16383},
      {mod(add(var(), cnst(17)), cnst(64)), 0, 63},
      {mod(add(var(), cnst(6)), cnst(20)), -12, 12},
      {mod(sub(cnst(3), mul(cnst(2), var())), cnst(7)), -12, 12},
      {add(mod(add(mul(cnst(3), var()), cnst(-4)), cnst(16)), cnst(-2)), -12,
       12},
      {sub(mod(sub(var(), cnst(9)), cnst(8)), cnst(5)), -12, 12},
      {mod(add(mod(var(), cnst(12)), cnst(5)), cnst(4)), -12, 12},
  };
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    prog::Clause c;
    c.loops = {{"i", shapes[s].lo, shapes[s].hi}};
    c.lhs_array = "A";
    c.lhs_subs = {{0, shapes[s].expr}};
    c.rhs = prog::number(1.0);
    ClauseKernel kern = ClauseKernel::compile(c);
    ASSERT_TRUE(kern.piecewise()) << s;
    ASSERT_EQ(kern.lhs_subs().mod.size(), 1u) << s;
    const ModSub& m = kern.lhs_subs().mod[0];
    for (i64 stride : {1, 2, 3, 4, 7, 16, 65}) {
      const i64 du = m.a * stride;
      for (i64 start = shapes[s].lo; start < shapes[s].lo + 5; ++start) {
        const i64 count = (shapes[s].hi - start) / stride + 1;
        i64 pieces = 0;
        for (i64 k = 0; k < count;) {
          i64 v = start + k * stride;
          const ModSub::Piece pc = m.piece(m.a * v + m.c, du, count - k);
          ASSERT_GE(pc.len, 1);
          ASSERT_LE(pc.len, count - k);
          for (i64 j = 0; j < pc.len; ++j) {
            v = start + (k + j) * stride;
            ASSERT_EQ(m.at(&v), pc.value + j * du)
                << "shape " << s << " stride " << stride << " i " << v;
          }
          k += pc.len;
          if (k < count) {  // a piece ends only at a wrap
            v = start + k * stride;
            EXPECT_NE(m.at(&v), pc.value + pc.len * du)
                << "shape " << s << " stride " << stride << " i " << v;
          }
          ++pieces;
        }
        // At most one piece per wrap, plus the first.
        const i64 span = std::abs(du) * (count - 1);
        EXPECT_LE(pieces, span / m.z + 2) << s;
      }
    }
  }
}

TEST(ClauseKernel, GuardCompilesAlongsideRhs) {
  prog::Clause c = one_ref_clause(fn::var(), 0, fn::var(), 0);
  c.guard = prog::Guard{prog::Guard::Cmp::GT, prog::ref(0),
                        prog::number(0.0)};
  ClauseKernel k = ClauseKernel::compile(c);
  ASSERT_NE(k.guard(), nullptr);
  std::vector<double> stack(static_cast<std::size_t>(k.stack_need()));
  for (double v : {-1.0, 0.0, 2.0,
                   std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> refs = {v};
    EXPECT_EQ(k.guard()->holds(refs.data(), nullptr, stack.data()),
              c.guard->holds(refs, {}))
        << v;
  }
  ClauseKernel plain =
      ClauseKernel::compile(one_ref_clause(fn::var(), 0, fn::var(), 0));
  EXPECT_EQ(plain.guard(), nullptr);
}

// --- strided-run analysis --------------------------------------------

struct RunCheck {
  bool ok = false;
  i64 covered = 0;
  StridedRun run;
};

// Validates every guarantee strided_run makes for a 1-D progression
// g(k) = g0 + k*dg against the descriptor's own owner/local arithmetic:
// each claimed k is in bounds, stored by the addressed image, and at the
// claimed strided local address.
RunCheck check_run(const ArrayDesc& desc, const ArrayAddr& aa,
                   std::optional<i64> owner_rank, i64 g0, i64 dg,
                   i64 count) {
  RunCheck rc;
  rc.ok = strided_run(aa, &g0, &dg, count, &rc.run);
  if (!rc.ok) return rc;
  EXPECT_GE(rc.run.k_lo, 0);
  EXPECT_LT(rc.run.k_hi, count);
  EXPECT_LE(rc.run.k_lo, rc.run.k_hi);
  for (i64 k = rc.run.k_lo; k <= rc.run.k_hi; ++k) {
    std::vector<i64> idx = {g0 + k * dg};
    EXPECT_TRUE(desc.in_bounds(idx)) << "k=" << k << " v=" << idx[0];
    if (!desc.in_bounds(idx)) return rc;
    i64 want = owner_rank ? desc.local_linear(idx) : desc.dense_linear(idx);
    if (owner_rank && !desc.is_replicated()) {
      EXPECT_EQ(desc.owner(idx), *owner_rank) << "k=" << k;
    }
    EXPECT_EQ(want, rc.run.addr0 + (k - rc.run.k_lo) * rc.run.stride)
        << "k=" << k << " v=" << idx[0];
  }
  rc.covered = rc.run.k_hi - rc.run.k_lo + 1;
  return rc;
}

TEST(StridedRun, BlockUnitStrideCoversEachRanksBlock) {
  ArrayDesc a = ArrayDesc::distributed("A", {0}, {31},
                                       DecompND({Decomp1D::block(32, 4)}));
  for (i64 p = 0; p < 4; ++p) {
    RunCheck rc = check_run(a, make_local_addr(a, p), p, 0, 1, 32);
    ASSERT_TRUE(rc.ok) << p;
    EXPECT_EQ(rc.covered, 8) << p;
    EXPECT_EQ(rc.run.stride, 1);
  }
}

TEST(StridedRun, BoundsAreClampedBeforeOwnership) {
  // Progression walks [-5, 36] over a 32-element block array: the
  // out-of-bounds head and tail must be excluded, each rank still gets
  // its full block.
  ArrayDesc a = ArrayDesc::distributed("A", {0}, {31},
                                       DecompND({Decomp1D::block(32, 4)}));
  RunCheck rc = check_run(a, make_local_addr(a, 0), 0, -5, 1, 42);
  ASSERT_TRUE(rc.ok);
  EXPECT_EQ(rc.run.k_lo, 5);
  EXPECT_EQ(rc.covered, 8);
}

TEST(StridedRun, NonZeroArrayBaseIsHandled) {
  ArrayDesc a = ArrayDesc::distributed("A", {3}, {34},
                                       DecompND({Decomp1D::block(32, 4)}));
  for (i64 p = 0; p < 4; ++p) {
    RunCheck rc = check_run(a, make_local_addr(a, p), p, 3, 1, 32);
    ASSERT_TRUE(rc.ok) << p;
    EXPECT_EQ(rc.covered, 8) << p;
  }
}

TEST(StridedRun, ScatterStrideMatchingPeriodCoversEverything) {
  // dg == P: ownership is constant along the progression, so the whole
  // range is either one run or rejected outright.
  ArrayDesc a = ArrayDesc::distributed(
      "A", {0}, {39}, DecompND({Decomp1D::scatter(40, 4)}));
  for (i64 p = 0; p < 4; ++p) {
    RunCheck rc = check_run(a, make_local_addr(a, p), p, 1, 4, 10);
    if (p == 1) {
      ASSERT_TRUE(rc.ok);
      EXPECT_EQ(rc.covered, 10);
      EXPECT_EQ(rc.run.stride, 1);  // consecutive local slots
    } else {
      EXPECT_FALSE(rc.ok) << p;
    }
  }
}

TEST(StridedRun, ScatterUnitStrideFallsBackToSingleElements) {
  // dg == 1 under scatter: owned elements are isolated, so at most one
  // block (of size 1) can be proven; the rest stays per-element.
  ArrayDesc a = ArrayDesc::distributed(
      "A", {0}, {15}, DecompND({Decomp1D::scatter(16, 4)}));
  for (i64 p = 0; p < 4; ++p) {
    RunCheck rc = check_run(a, make_local_addr(a, p), p, 0, 1, 16);
    ASSERT_TRUE(rc.ok) << p;
    EXPECT_GE(rc.covered, 1) << p;
  }
}

TEST(StridedRun, BlockScatterKeepsTheFirstOwnedBlock) {
  // BS(3) over 3 ranks: rank 0 owns [0,3) U [9,12) U ...; a unit-stride
  // walk proves exactly the first owned block.
  ArrayDesc a = ArrayDesc::distributed(
      "A", {0}, {35}, DecompND({Decomp1D::block_scatter(36, 3, 3)}));
  for (i64 p = 0; p < 3; ++p) {
    RunCheck rc = check_run(a, make_local_addr(a, p), p, 0, 1, 36);
    ASSERT_TRUE(rc.ok) << p;
    EXPECT_EQ(rc.covered, 3) << p;
    EXPECT_EQ(rc.run.k_lo, 3 * p) << p;
  }
}

TEST(StridedRun, NegativeStrideWalksBlocksBackwards) {
  ArrayDesc a = ArrayDesc::distributed("A", {0}, {31},
                                       DecompND({Decomp1D::block(32, 4)}));
  for (i64 p = 0; p < 4; ++p) {
    RunCheck rc = check_run(a, make_local_addr(a, p), p, 31, -1, 32);
    ASSERT_TRUE(rc.ok) << p;
    EXPECT_EQ(rc.covered, 8) << p;
    EXPECT_EQ(rc.run.stride, -1) << p;
  }
}

TEST(StridedRun, ConstantProgressionIsAllOrNothing) {
  ArrayDesc a = ArrayDesc::distributed("A", {0}, {31},
                                       DecompND({Decomp1D::block(32, 4)}));
  // Element 10 lives on rank 1 (b = 8).
  RunCheck owned = check_run(a, make_local_addr(a, 1), 1, 10, 0, 7);
  ASSERT_TRUE(owned.ok);
  EXPECT_EQ(owned.covered, 7);
  EXPECT_EQ(owned.run.stride, 0);
  EXPECT_FALSE(check_run(a, make_local_addr(a, 0), 0, 10, 0, 7).ok);
}

TEST(StridedRun, ReplicatedArraysAreDenseEverywhere) {
  ArrayDesc r = ArrayDesc::replicated("R", {0}, {9}, 3);
  for (i64 p = 0; p < 3; ++p) {
    RunCheck rc = check_run(r, make_local_addr(r, p), p, -2, 1, 14);
    ASSERT_TRUE(rc.ok) << p;
    EXPECT_EQ(rc.covered, 10) << p;
    EXPECT_EQ(rc.run.stride, 1) << p;
  }
}

TEST(StridedRun, DenseAddressingIgnoresOwnership) {
  ArrayDesc a = ArrayDesc::distributed(
      "A", {0}, {15}, DecompND({Decomp1D::scatter(16, 4)}));
  RunCheck rc = check_run(a, make_dense_addr(a), std::nullopt, -3, 1, 22);
  ASSERT_TRUE(rc.ok);
  EXPECT_EQ(rc.run.k_lo, 3);
  EXPECT_EQ(rc.covered, 16);
  EXPECT_EQ(rc.run.stride, 1);
}

TEST(StridedRun, TwoDimensionalInnerDimension) {
  // 2x3 grid: rows blocked, columns scattered. A column walk with
  // dg == P resolves to the owning rank's consecutive local columns.
  ArrayDesc a = ArrayDesc::distributed(
      "A2", {0, 0}, {7, 11},
      DecompND({Decomp1D::block(8, 2), Decomp1D::scatter(12, 3)}));
  const i64 row = 5;
  const i64 owner = a.owner({row, 1});
  for (i64 p = 0; p < 6; ++p) {
    i64 g0[2] = {row, 1};
    i64 dg[2] = {0, 3};
    StridedRun run;
    bool ok = strided_run(make_local_addr(a, p), g0, dg, 4, &run);
    if (p != owner) {
      EXPECT_FALSE(ok) << p;
      continue;
    }
    ASSERT_TRUE(ok);
    EXPECT_EQ(run.k_lo, 0);
    EXPECT_EQ(run.k_hi, 3);
    for (i64 k = 0; k <= 3; ++k) {
      std::vector<i64> idx = {row, 1 + 3 * k};
      EXPECT_EQ(a.owner(idx), p);
      EXPECT_EQ(a.local_linear(idx), run.addr0 + k * run.stride) << k;
    }
  }
}

// --- iteration-space range enumeration -------------------------------

TEST(IterationSpace, RunsEnumerateTheSameElementsInOrder) {
  using gen::Method;
  using gen::Schedule;
  IterationSpace space({
      Schedule::closed_form(Method::RepeatedBlock, {{0, 3, 1}, {10, 2, 5}}),
      Schedule::closed_form(Method::Theorem3Linear, {{2, 4, 3}}),
  });
  std::vector<std::vector<i64>> elements;
  space.for_each(
      [&](const std::vector<i64>& v) { elements.push_back(v); });
  std::vector<std::vector<i64>> from_runs;
  space.for_each_run([&](const std::vector<i64>& vals,
                         const gen::Piece& run) {
    for (i64 j = 0; j < run.count; ++j)
      from_runs.push_back({vals[0], run.start + j * run.stride});
  });
  EXPECT_EQ(elements, from_runs);
  EXPECT_EQ(static_cast<i64>(elements.size()), space.count());
}

TEST(IterationSpace, ProbingChargeIsReplayedPerEnumeration) {
  // A run-time-resolution schedule materializes once at construction;
  // every subsequent enumeration must replay exactly the recorded
  // membership-test charge, so N passes cost N times one pass.
  gen::Schedule probe = gen::Schedule::runtime_resolution(
      fn::IndexFn::identity(), Decomp1D::scatter(16, 4), 1, 0, 15);
  gen::EnumStats direct;
  std::vector<i64> want = probe.materialize(&direct);

  IterationSpace space({probe});
  gen::EnumStats one;
  std::vector<i64> got;
  space.for_each([&](const std::vector<i64>& v) { got.push_back(v[0]); },
                 &one);
  EXPECT_EQ(got, want);
  EXPECT_EQ(one.tests, direct.tests);
  EXPECT_EQ(one.loop_iters, direct.loop_iters);
  EXPECT_EQ(one.yielded, direct.yielded);

  gen::EnumStats twice = one;
  space.for_each_run([](const std::vector<i64>&, const gen::Piece&) {},
                     &twice);
  EXPECT_EQ(twice.tests, 2 * one.tests);
  EXPECT_EQ(twice.loop_iters, 2 * one.loop_iters);
  EXPECT_EQ(twice.yielded, 2 * one.yielded);
}

TEST(IterationSpace, EmptyDimShortCircuitsLaterCharges) {
  using gen::Method;
  using gen::Schedule;
  gen::Schedule probe = gen::Schedule::runtime_resolution(
      fn::IndexFn::identity(), Decomp1D::scatter(16, 4), 1, 0, 15);
  IterationSpace space({Schedule::empty(Method::BlockBounds), probe});
  gen::EnumStats stats;
  int calls = 0;
  space.for_each([&](const std::vector<i64>&) { ++calls; }, &stats);
  EXPECT_EQ(calls, 0);
  // The empty leading dimension stops the walk before the probing
  // dimension's charge is replayed.
  EXPECT_EQ(stats.tests, 0);
}

// --- fused-path allocation discipline --------------------------------

TEST(FusedPath, SteadyStateAllocationsAreIndependentOfProblemSize) {
  // The fused inner loop performs no per-element allocation, so the
  // total allocation count of a run must not scale with n — only with
  // the (fixed) rank/plan structure. The fused loop runs in the shared
  // machine's recording pass; on dist the single execution is inspected
  // and replayed, and the inspector's bulk-noted runs reserve their
  // schedule up front.
  auto allocs_for = [](i64 n, bool dist) {
    spmd::Program p;
    p.procs = 4;
    p.arrays.emplace("A", ArrayDesc::distributed(
                              "A", {0}, {n - 1},
                              DecompND({Decomp1D::block(n, 4)})));
    p.arrays.emplace("B", ArrayDesc::distributed(
                              "B", {0}, {n - 1},
                              DecompND({Decomp1D::block(n, 4)})));
    prog::Clause c;
    c.loops = {{"i", 0, n - 2}};
    c.lhs_array = "A";
    c.lhs_subs = {{0, fn::var()}};
    c.refs.push_back({"B", {{0, fn::add(fn::var(), fn::cnst(1))}}});
    c.rhs = prog::add(prog::mul(prog::ref(0), prog::number(2.0)),
                      prog::number(1.0));
    p.steps.emplace_back(std::move(c));

    rt::EngineOptions e;
    e.threads = 1;  // inline on the caller: deterministic accounting
    auto count = [&](auto& m) {
      m.load("B", iota(n));
      g_new_calls = 0;
      g_count_allocs = true;
      m.run();
      g_count_allocs = false;
      EXPECT_GT(dist ? m.path_counters().sched : m.path_counters().fused, 0)
          << "n=" << n;
      EXPECT_EQ(m.path_counters().interp, 0) << "n=" << n;
      return g_new_calls.load();
    };
    if (dist) {
      rt::DistMachine m(p, {}, {}, e);
      return count(m);
    }
    rt::SharedMachine m(p, {}, {}, /*elide_barriers=*/false, e);
    return count(m);
  };
  for (bool dist : {false, true}) {
    long long small = allocs_for(512, dist);
    long long big = allocs_for(4096, dist);
    EXPECT_LE(std::llabs(big - small), 32)
        << "allocations scale with n: n=512 -> " << small
        << ", n=4096 -> " << big << " (dist " << dist << ")";
  }
}

// --- non-affine clauses on the parallel machines ----------------------

TEST(GenericPath, ModularClauseRunsThroughTheKernelOnDistAndShared) {
  // A rotate read B[(i+k) mod n] is affine-mod, not affine: no strided
  // runs on dist, but every element still runs through the kernel's
  // records — never a tree walk — and matches the reference executor.
  // On dist the inspector resolves the records and every execution runs
  // a schedule, so no element takes a per-element path; shared records
  // its schedule on a kernel pass that runs each piece between the
  // rotate's wraps as a strided run over the dense image (fused).
  std::string src =
      "processors 4;\narray A[0:39]; array B[0:39];\n"
      "distribute A block; distribute B scatter;\n";
  for (int t = 0; t < 3; ++t)
    src += "forall i in 0:39 do A[i] := B[(i + 13) mod 40]*2 + 1; od\n";
  spmd::Program p = lang::compile(src);

  rt::SeqExecutor ref(p, /*reference=*/true);
  ref.load("B", iota(40));
  ref.run();

  rt::EngineOptions e;
  e.jit = false;
  rt::DistMachine dist(p, {}, {}, e);
  dist.load("B", iota(40));
  dist.run();
  EXPECT_EQ(dist.gather("A"), ref.result("A"));
  EXPECT_EQ(dist.path_counters().interp, 0);
  EXPECT_EQ(dist.path_counters().generic, 0);
  EXPECT_GT(dist.path_counters().sched, 0);

  rt::SharedMachine shared(p, {}, {}, /*elide_barriers=*/false, e);
  shared.load("B", iota(40));
  shared.run();
  EXPECT_EQ(shared.result("A"), ref.result("A"));
  EXPECT_EQ(shared.path_counters().interp, 0);
  EXPECT_EQ(shared.path_counters().generic, 0);
  EXPECT_EQ(shared.path_counters().fused, 40);  // the recording pass
  EXPECT_GT(shared.path_counters().sched, 0);
}

}  // namespace
}  // namespace vcal::spmd
