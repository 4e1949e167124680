// Tests for fn/: symbolic subscripts, classification, index functions.
#include <gtest/gtest.h>

#include <set>

#include "fn/classify.hpp"
#include "fn/index_fn.hpp"
#include "fn/sym.hpp"
#include "support/error.hpp"

namespace vcal::fn {
namespace {

TEST(Sym, EvalAndPrint) {
  // 3*i + 1
  SymPtr s = add(mul(cnst(3), var()), cnst(1));
  EXPECT_EQ(eval(s, 0), 1);
  EXPECT_EQ(eval(s, 5), 16);
  EXPECT_EQ(to_string(s), "3*i + 1");

  // (i + 6) mod 20
  SymPtr rot = mod(add(var(), cnst(6)), cnst(20));
  EXPECT_EQ(eval(rot, 0), 6);
  EXPECT_EQ(eval(rot, 19), 5);
  EXPECT_EQ(to_string(rot), "(i + 6) mod 20");

  // i div 4 uses floor semantics
  SymPtr d = intdiv(var(), cnst(4));
  EXPECT_EQ(eval(d, -1), -1);
  EXPECT_EQ(eval(d, 7), 1);
}

TEST(Sym, ZeroDivisorIsARuntimeFault) {
  // i mod (i - 3) and i div (i - 3) at i = 3: a fault of the program,
  // not a broken invariant.
  SymPtr m = mod(var(), sub(var(), cnst(3)));
  SymPtr d = intdiv(var(), sub(var(), cnst(3)));
  EXPECT_EQ(eval(m, 5), 1);
  EXPECT_EQ(eval(d, 5), 2);
  try {
    (void)eval(m, 3);
    ADD_FAILURE() << "mod by zero evaluated";
  } catch (const RuntimeFault& f) {
    EXPECT_STREQ(f.what(), "'mod' by zero in a subscript");
  }
  try {
    (void)eval(d, 3);
    ADD_FAILURE() << "div by zero evaluated";
  } catch (const RuntimeFault& f) {
    EXPECT_STREQ(f.what(), "'div' by zero in a subscript");
  }
}

TEST(Sym, PrintRespectsPrecedence) {
  SymPtr s = mul(add(var(), cnst(1)), cnst(2));
  EXPECT_EQ(to_string(s), "(i + 1)*2");
  SymPtr t = sub(var(), sub(var(), cnst(1)));
  EXPECT_EQ(to_string(t), "i - (i - 1)");
}

TEST(Sym, IsConstant) {
  EXPECT_TRUE(is_constant(add(cnst(1), cnst(2))));
  EXPECT_FALSE(is_constant(add(cnst(1), var())));
  EXPECT_TRUE(is_constant(neg(cnst(3))));
}

TEST(Classify, RecognizesConstant) {
  IndexFn f = classify(add(cnst(4), mul(cnst(2), cnst(3))));
  EXPECT_EQ(f.cls(), FnClass::Constant);
  EXPECT_EQ(f.const_value(), 10);
}

TEST(Classify, RecognizesAffineForms) {
  struct Case {
    SymPtr s;
    i64 a, c;
  };
  std::vector<Case> cases;
  cases.push_back({add(var(), cnst(3)), 1, 3});                    // i + 3
  cases.push_back({add(mul(cnst(3), var()), cnst(-2)), 3, -2});    // 3i - 2
  cases.push_back({sub(cnst(10), mul(cnst(2), var())), -2, 10});   // 10-2i
  cases.push_back({neg(var()), -1, 0});                            // -i
  cases.push_back({mul(var(), cnst(4)), 4, 0});                    // i*4
  cases.push_back({add(var(), var()), 2, 0});                      // i + i
  for (const auto& c : cases) {
    IndexFn f = classify(c.s);
    ASSERT_EQ(f.cls(), FnClass::Affine) << to_string(c.s);
    EXPECT_EQ(f.affine_a(), c.a) << to_string(c.s);
    EXPECT_EQ(f.affine_c(), c.c) << to_string(c.s);
  }
}

TEST(Classify, RecognizesAffineMod) {
  // (i + 6) mod 20 — the paper's rotate example.
  IndexFn f = classify(mod(add(var(), cnst(6)), cnst(20)));
  ASSERT_EQ(f.cls(), FnClass::AffineMod);
  EXPECT_EQ(f.affine_a(), 1);
  EXPECT_EQ(f.affine_c(), 6);
  EXPECT_EQ(f.mod_z(), 20);
  EXPECT_EQ(f.mod_d(), 0);

  // (2*i) mod 8 + 1 via addition after mod.
  IndexFn g = classify(add(mod(mul(cnst(2), var()), cnst(8)), cnst(1)));
  ASSERT_EQ(g.cls(), FnClass::AffineMod);
  EXPECT_EQ(g.mod_d(), 1);
}

TEST(Classify, RecognizesMonotone) {
  // i + (i div 4): the paper's example of a monotone non-linear function.
  IndexFn f = classify(add(var(), intdiv(var(), cnst(4))));
  ASSERT_EQ(f.cls(), FnClass::Monotone);
  EXPECT_EQ(f.direction(), 1);
  EXPECT_FALSE(f.requires_nonneg_domain());

  // i*i: monotone only on i >= 0 (the paper's f(i) = i^2).
  IndexFn g = classify(mul(var(), var()));
  ASSERT_EQ(g.cls(), FnClass::Monotone);
  EXPECT_EQ(g.direction(), 1);
  EXPECT_TRUE(g.requires_nonneg_domain());

  // Decreasing: 100 - (i div 2).
  IndexFn h = classify(sub(cnst(100), intdiv(var(), cnst(2))));
  ASSERT_EQ(h.cls(), FnClass::Monotone);
  EXPECT_EQ(h.direction(), -1);
}

TEST(Classify, NestedModSimplification) {
  // Section 3.3: g mod (n*pmax) mod pmax == g mod pmax when the inner
  // modulus is a multiple of the outer one.
  SymPtr s = mod(mod(add(mul(cnst(3), var()), cnst(5)), cnst(24)), cnst(8));
  IndexFn f = classify(s);
  ASSERT_EQ(f.cls(), FnClass::AffineMod);
  EXPECT_EQ(f.affine_a(), 3);
  EXPECT_EQ(f.affine_c(), 5);
  EXPECT_EQ(f.mod_z(), 8);
  for (i64 i = 0; i <= 60; ++i) EXPECT_EQ(f(i), eval(s, i)) << i;

  // Non-divisible moduli must stay opaque.
  SymPtr bad = mod(mod(var(), cnst(10)), cnst(7));
  EXPECT_EQ(classify(bad).cls(), FnClass::Opaque);
  // A shifted inner mod simplifies too: ((i mod 24) + 1) mod 8 ==
  // (i + 1) mod 8 because 8 | 24 (composed rotations).
  SymPtr shifted = mod(add(mod(var(), cnst(24)), cnst(1)), cnst(8));
  ASSERT_EQ(classify(shifted).cls(), FnClass::AffineMod);
  for (i64 i = 0; i <= 60; ++i)
    EXPECT_EQ(classify(shifted)(i), eval(shifted, i));
  // But a shift that breaks divisibility stays opaque.
  SymPtr bad2 = mod(add(mod(var(), cnst(10)), cnst(1)), cnst(7));
  EXPECT_EQ(classify(bad2).cls(), FnClass::Opaque);
}

TEST(Classify, FallsBackToOpaque) {
  // i mod (i + 3): modulus is not constant.
  IndexFn f = classify(mod(var(), add(var(), cnst(3))));
  EXPECT_EQ(f.cls(), FnClass::Opaque);
  // (i mod 5)*(i mod 7): product of non-monotone pieces.
  IndexFn g = classify(mul(mod(var(), cnst(5)), mod(var(), cnst(7))));
  EXPECT_EQ(g.cls(), FnClass::Opaque);
}

TEST(Classify, ResultEvaluatesIdentically) {
  std::vector<SymPtr> exprs = {
      add(mul(cnst(3), var()), cnst(1)),
      mod(add(var(), cnst(6)), cnst(20)),
      add(var(), intdiv(var(), cnst(4))),
      mul(var(), var()),
      mul(mod(var(), cnst(5)), mod(var(), cnst(7))),
      sub(cnst(9), var()),
  };
  for (const SymPtr& s : exprs) {
    IndexFn f = classify(s);
    for (i64 i = 0; i <= 50; ++i)
      EXPECT_EQ(f(i), eval(s, i)) << to_string(s) << " at " << i;
  }
}

TEST(IndexFn, ConstantBasics) {
  IndexFn f = IndexFn::constant(7);
  EXPECT_EQ(f.cls(), FnClass::Constant);
  EXPECT_EQ(f(123), 7);
  EXPECT_EQ(f.direction(), 0);
  EXPECT_EQ(f.str(), "7");
  EXPECT_FALSE(f.injective_on(0, 5));
  EXPECT_TRUE(f.injective_on(3, 3));
}

TEST(IndexFn, AffineZeroSlopeCollapsesToConstant) {
  IndexFn f = IndexFn::affine(0, 5);
  EXPECT_EQ(f.cls(), FnClass::Constant);
}

TEST(IndexFn, AffinePreimageInterval) {
  IndexFn f = IndexFn::affine(3, 1);  // 3i + 1
  // f(i) in [4, 13]  =>  i in [1, 4]
  auto iv = f.preimage_interval(4, 13, -100, 100);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->first, 1);
  EXPECT_EQ(iv->second, 4);
  // Clamped by domain.
  iv = f.preimage_interval(4, 13, 2, 100);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->first, 2);
  // Empty band between lattice points: f(i) in [5, 6] has no solution.
  EXPECT_FALSE(f.preimage_interval(5, 6, -100, 100).has_value());
}

TEST(IndexFn, NegativeSlopePreimage) {
  IndexFn f = IndexFn::affine(-2, 10);  // 10 - 2i, decreasing
  for (i64 ylo = -10; ylo <= 14; ++ylo) {
    for (i64 yhi = ylo; yhi <= 14; ++yhi) {
      auto iv = f.preimage_interval(ylo, yhi, -5, 12);
      std::set<i64> expect;
      for (i64 i = -5; i <= 12; ++i)
        if (f(i) >= ylo && f(i) <= yhi) expect.insert(i);
      if (expect.empty()) {
        EXPECT_FALSE(iv.has_value());
      } else {
        ASSERT_TRUE(iv.has_value());
        EXPECT_EQ(iv->first, *expect.begin());
        EXPECT_EQ(iv->second, *expect.rbegin());
      }
    }
  }
}

TEST(IndexFn, MonotonePreimageByBisection) {
  IndexFn f = classify(add(var(), intdiv(var(), cnst(4))));
  ASSERT_EQ(f.cls(), FnClass::Monotone);
  for (i64 y = -5; y <= 30; ++y) {
    auto pt = f.preimage_point(y, 0, 24);
    bool exists = false;
    i64 first = 0;
    for (i64 i = 0; i <= 24; ++i)
      if (f(i) == y) {
        if (!exists) first = i;
        exists = true;
      }
    EXPECT_EQ(pt.has_value(), exists) << "y=" << y;
    if (exists) {
      EXPECT_EQ(*pt, first);
    }
  }
}

TEST(IndexFn, MonotoneDecreasingPreimage) {
  IndexFn f = classify(sub(cnst(50), intdiv(var(), cnst(3))));
  ASSERT_EQ(f.direction(), -1);
  auto iv = f.preimage_interval(45, 48, 0, 30);
  std::set<i64> expect;
  for (i64 i = 0; i <= 30; ++i)
    if (f(i) >= 45 && f(i) <= 48) expect.insert(i);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->first, *expect.begin());
  EXPECT_EQ(iv->second, *expect.rbegin());
}

TEST(IndexFn, MonotoneNonNegDomainGuard) {
  IndexFn f = classify(mul(var(), var()));
  EXPECT_THROW(f.preimage_interval(0, 10, -3, 3), CodegenError);
  EXPECT_NO_THROW(f.preimage_interval(0, 10, 0, 3));
}

TEST(IndexFn, AffineModPiecesCoverDomainExactly) {
  // (i + 6) mod 20 over 0:19 — one breakpoint at i = 14.
  IndexFn f = IndexFn::affine_mod(1, 6, 20, 0);
  auto ps = f.pieces(0, 19);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0].lo, 0);
  EXPECT_EQ(ps[0].hi, 13);
  EXPECT_EQ(ps[1].lo, 14);
  EXPECT_EQ(ps[1].hi, 19);
  for (const auto& p : ps)
    for (i64 i = p.lo; i <= p.hi; ++i)
      EXPECT_EQ(p.a * i + p.c, f(i)) << "i=" << i;
}

TEST(IndexFn, AffineModPiecesWithStride) {
  // (3i + 2) mod 10 over 0:20: multiple wraps, slope 3 pieces.
  IndexFn f = IndexFn::affine_mod(3, 2, 10, 0);
  auto ps = f.pieces(0, 20);
  i64 covered = 0;
  for (const auto& p : ps) {
    EXPECT_LE(p.lo, p.hi);
    covered += p.hi - p.lo + 1;
    for (i64 i = p.lo; i <= p.hi; ++i) EXPECT_EQ(p.a * i + p.c, f(i));
  }
  EXPECT_EQ(covered, 21);
}

TEST(IndexFn, AffineModNegativeSlopePieces) {
  IndexFn f = IndexFn::affine_mod(-2, 30, 12, 1);
  auto ps = f.pieces(0, 15);
  i64 covered = 0;
  i64 prev_hi = -1;
  for (const auto& p : ps) {
    // Pieces are in ascending domain order.
    EXPECT_EQ(p.lo, prev_hi + 1);
    prev_hi = p.hi;
    covered += p.hi - p.lo + 1;
    for (i64 i = p.lo; i <= p.hi; ++i) EXPECT_EQ(p.a * i + p.c, f(i));
  }
  EXPECT_EQ(covered, 16);
}

TEST(IndexFn, InjectivityChecks) {
  EXPECT_TRUE(IndexFn::affine(2, 1).injective_on(-100, 100));
  // Rotate: injective over one period.
  EXPECT_TRUE(IndexFn::affine_mod(1, 6, 20, 0).injective_on(0, 19));
  // Over more than one period it collides.
  EXPECT_FALSE(IndexFn::affine_mod(1, 6, 20, 0).injective_on(0, 20));
  // i div 4 has plateaus.
  IndexFn f = classify(intdiv(var(), cnst(4)));
  EXPECT_FALSE(f.injective_on(0, 10));
  // i + (i div 4) is strictly increasing.
  IndexFn g = classify(add(var(), intdiv(var(), cnst(4))));
  EXPECT_TRUE(g.injective_on(0, 40));
}

TEST(IndexFn, ImageBounds) {
  EXPECT_EQ(IndexFn::affine(3, 1).image_bounds(0, 9),
            (std::pair<i64, i64>{1, 28}));
  EXPECT_EQ(IndexFn::affine(-3, 1).image_bounds(0, 9),
            (std::pair<i64, i64>{-26, 1}));
  EXPECT_EQ(IndexFn::constant(5).image_bounds(0, 9),
            (std::pair<i64, i64>{5, 5}));
  auto mb = IndexFn::affine_mod(1, 6, 20, 0).image_bounds(0, 19);
  EXPECT_EQ(mb.first, 0);
  EXPECT_EQ(mb.second, 19);
}

TEST(IndexFn, CompositionStaysSymbolic) {
  IndexFn f = IndexFn::affine(2, 3);
  IndexFn g = IndexFn::affine(5, -1);
  IndexFn fg = f.after(g);  // 2*(5i - 1) + 3 = 10i + 1
  ASSERT_EQ(fg.cls(), FnClass::Affine);
  EXPECT_EQ(fg.affine_a(), 10);
  EXPECT_EQ(fg.affine_c(), 1);

  IndexFn m = IndexFn::affine_mod(1, 0, 10, 0);
  IndexFn mg = m.after(IndexFn::affine(2, 1));  // (2i + 1) mod 10
  ASSERT_EQ(mg.cls(), FnClass::AffineMod);
  EXPECT_EQ(mg.affine_a(), 2);
  EXPECT_EQ(mg.affine_c(), 1);

  IndexFn c = IndexFn::constant(4).after(g);
  EXPECT_EQ(c.cls(), FnClass::Constant);

  IndexFn gc = g.after(IndexFn::constant(4));  // 5*4 - 1 = 19
  ASSERT_EQ(gc.cls(), FnClass::Constant);
  EXPECT_EQ(gc.const_value(), 19);
}

TEST(IndexFn, CompositionIdentityAndShiftShortcuts) {
  IndexFn id = IndexFn::identity();
  IndexFn rot = IndexFn::affine_mod(1, 6, 20, 0);
  // id ∘ g == g: the subscript normalization for base-0 arrays must not
  // weaken the class (regression: used to degrade to opaque).
  EXPECT_EQ(id.after(rot).cls(), FnClass::AffineMod);
  EXPECT_EQ(rot.after(id).cls(), FnClass::AffineMod);
  // A shift after affine-mod folds into the d offset.
  IndexFn shifted = IndexFn::affine(1, -3).after(rot);
  ASSERT_EQ(shifted.cls(), FnClass::AffineMod);
  EXPECT_EQ(shifted.mod_d(), -3);
  for (i64 i = 0; i <= 40; ++i) EXPECT_EQ(shifted(i), rot(i) - 3);
  // Identity after monotone keeps monotone.
  IndexFn mono = classify(add(var(), intdiv(var(), cnst(4))));
  EXPECT_EQ(id.after(mono).cls(), FnClass::Monotone);
}

TEST(IndexFn, CompositionEvaluatesCorrectly) {
  IndexFn mono = classify(add(var(), intdiv(var(), cnst(4))));
  IndexFn shifted = mono.after(IndexFn::affine(1, 5));
  ASSERT_EQ(shifted.cls(), FnClass::Monotone);
  for (i64 i = 0; i <= 20; ++i) EXPECT_EQ(shifted(i), mono(i + 5));
}

TEST(IndexFn, StrSubstitutesVariable) {
  EXPECT_EQ(IndexFn::affine(3, 1).str("j"), "3*j + 1");
  EXPECT_EQ(IndexFn::affine(1, 0).str(), "i");
  EXPECT_EQ(IndexFn::affine(-1, 0).str(), "-i");
  EXPECT_EQ(IndexFn::affine_mod(1, 6, 20, 0).str(), "(i + 6) mod 20");
}

TEST(IndexFn, AccessorGuards) {
  EXPECT_THROW(IndexFn::affine(2, 1).const_value(), InternalError);
  EXPECT_THROW(IndexFn::constant(3).affine_a(), InternalError);
  EXPECT_THROW(IndexFn::affine(2, 1).mod_z(), InternalError);
}

}  // namespace
}  // namespace vcal::fn
