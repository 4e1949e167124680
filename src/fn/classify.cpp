#include "fn/classify.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "support/error.hpp"

namespace vcal::fn {

namespace {

// Intermediate shape lattice used during the bottom-up walk.
struct Shape {
  enum class Kind { Lin, LinMod, Mono, Opq } kind;
  // Lin: a*i + c         LinMod: (a*i + c) mod z + d
  i64 a = 0, c = 0, z = 1, d = 0;
  // Mono: direction and whether monotonicity needs i >= 0.
  int dir = 0;
  bool nonneg = false;
};

Shape lin(i64 a, i64 c) { return {Shape::Kind::Lin, a, c, 1, 0, 0, false}; }
Shape linmod(i64 a, i64 c, i64 z, i64 d) {
  return {Shape::Kind::LinMod, a, c, z, d, 0, false};
}
Shape mono(int dir, bool nonneg) {
  return {Shape::Kind::Mono, 0, 0, 1, 0, dir, nonneg};
}
Shape opq() { return {Shape::Kind::Opq, 0, 0, 1, 0, 0, false}; }

bool is_const(const Shape& s) {
  return s.kind == Shape::Kind::Lin && s.a == 0;
}

// Effective monotone direction of a shape, 0 when not monotone as a whole.
int dir_of(const Shape& s) {
  switch (s.kind) {
    case Shape::Kind::Lin:
      return s.a == 0 ? 0 : (s.a > 0 ? 1 : -1);
    case Shape::Kind::Mono:
      return s.dir;
    default:
      return 0;
  }
}

bool needs_nonneg(const Shape& s) {
  return s.kind == Shape::Kind::Mono && s.nonneg;
}

Shape combine_add(const Shape& x, const Shape& y) {
  if (x.kind == Shape::Kind::Lin && y.kind == Shape::Kind::Lin)
    return lin(add_checked(x.a, y.a), add_checked(x.c, y.c));
  if (x.kind == Shape::Kind::LinMod && is_const(y))
    return linmod(x.a, x.c, x.z, add_checked(x.d, y.c));
  if (y.kind == Shape::Kind::LinMod && is_const(x))
    return linmod(y.a, y.c, y.z, add_checked(y.d, x.c));
  // Constant + monotone keeps monotonicity.
  if (is_const(x) && dir_of(y) != 0) return mono(dir_of(y), needs_nonneg(y));
  if (is_const(y) && dir_of(x) != 0) return mono(dir_of(x), needs_nonneg(x));
  int dx = dir_of(x), dy = dir_of(y);
  if (dx != 0 && dx == dy) return mono(dx, needs_nonneg(x) || needs_nonneg(y));
  return opq();
}

Shape combine_neg(const Shape& x) {
  if (x.kind == Shape::Kind::Lin)
    return lin(mul_checked(x.a, -1), mul_checked(x.c, -1));
  if (dir_of(x) != 0) return mono(-dir_of(x), needs_nonneg(x));
  return opq();
}

Shape combine_mul(const Shape& x, const Shape& y) {
  if (is_const(x) && is_const(y)) return lin(0, mul_checked(x.c, y.c));
  if (is_const(x) || is_const(y)) {
    const Shape& k = is_const(x) ? x : y;
    const Shape& v = is_const(x) ? y : x;
    if (k.c == 0) return lin(0, 0);
    if (v.kind == Shape::Kind::Lin)
      return lin(mul_checked(k.c, v.a), mul_checked(k.c, v.c));
    if (dir_of(v) != 0)
      return mono(k.c > 0 ? dir_of(v) : -dir_of(v), needs_nonneg(v));
    return opq();
  }
  if (x.kind == Shape::Kind::Lin && y.kind == Shape::Kind::Lin) {
    // Quadratic: increasing on i >= 0 when both factors are increasing and
    // non-negative there.
    if (x.a > 0 && x.c >= 0 && y.a > 0 && y.c >= 0)
      return mono(1, /*nonneg=*/true);
    return opq();
  }
  return opq();
}

Shape combine_div(const Shape& x, const Shape& y) {
  if (!is_const(y) || y.c == 0) return opq();
  if (is_const(x)) return lin(0, floordiv(x.c, y.c));
  int dx = dir_of(x);
  if (dx == 0) return opq();
  // floor division by a positive constant preserves weak monotonicity;
  // by a negative constant it flips it.
  return mono(y.c > 0 ? dx : -dx, needs_nonneg(x));
}

Shape combine_mod(const Shape& x, const Shape& y) {
  if (!is_const(y) || y.c <= 0) return opq();
  if (is_const(x)) return lin(0, emod(x.c, y.c));
  if (x.kind == Shape::Kind::Lin) return linmod(x.a, x.c, y.c, 0);
  // Section 3.3 simplification: ((g mod z1) + d) mod z2 == (g + d) mod z2
  // whenever z2 divides z1 (the paper's "z is a multiple of pmax" case).
  if (x.kind == Shape::Kind::LinMod && emod(x.z, y.c) == 0)
    return linmod(x.a, add_checked(x.c, x.d), y.c, 0);
  return opq();
}

Shape analyze(const SymPtr& s) {
  switch (s->op) {
    case Sym::Op::Const:
      return lin(0, s->value);
    case Sym::Op::Var:
      return lin(1, 0);
    case Sym::Op::Neg:
      return combine_neg(analyze(s->lhs));
    case Sym::Op::Add:
      return combine_add(analyze(s->lhs), analyze(s->rhs));
    case Sym::Op::Sub:
      return combine_add(analyze(s->lhs), combine_neg(analyze(s->rhs)));
    case Sym::Op::Mul:
      return combine_mul(analyze(s->lhs), analyze(s->rhs));
    case Sym::Op::Div:
      return combine_div(analyze(s->lhs), analyze(s->rhs));
    case Sym::Op::Mod:
      return combine_mod(analyze(s->lhs), analyze(s->rhs));
  }
  throw InternalError("classify: bad Sym op");
}

// ---- overflow bounds (may_overflow) ----

using Wide = __int128;
constexpr Wide kMin = std::numeric_limits<i64>::min();
constexpr Wide kMax = std::numeric_limits<i64>::max();

struct Span {
  Wide lo, hi;
};

bool fits(const Span& r) { return kMin <= r.lo && r.hi <= kMax; }

Span hull(std::initializer_list<Wide> vs) {
  return {std::min(vs), std::max(vs)};
}

Wide floor_div(Wide a, Wide b) {
  Wide q = a / b;
  if (a % b != 0 && ((a % b < 0) != (b < 0))) --q;
  return q;
}

// Bounds of eval(s, i) over i in [lo, hi]; nullopt when some node, or an
// operand eval negates, may leave i64. A divisor that may be zero is a
// separate fault and not judged here.
std::optional<Span> bounds(const SymPtr& s, i64 lo, i64 hi) {
  auto checked = [](Span r) -> std::optional<Span> {
    if (!fits(r)) return std::nullopt;
    return r;
  };
  if (s->op == Sym::Op::Const) return Span{s->value, s->value};
  if (s->op == Sym::Op::Var) return Span{lo, hi};
  std::optional<Span> x = bounds(s->lhs, lo, hi);
  if (!x) return std::nullopt;
  if (s->op == Sym::Op::Neg) return checked({-x->hi, -x->lo});
  std::optional<Span> y = bounds(s->rhs, lo, hi);
  if (!y) return std::nullopt;
  switch (s->op) {
    case Sym::Op::Add:
      return checked({x->lo + y->lo, x->hi + y->hi});
    case Sym::Op::Sub: {
      std::optional<Span> ny = checked({-y->hi, -y->lo});
      if (!ny) return std::nullopt;
      return checked({x->lo + ny->lo, x->hi + ny->hi});
    }
    case Sym::Op::Mul:
      return checked(hull({x->lo * y->lo, x->lo * y->hi, x->hi * y->lo,
                           x->hi * y->hi}));
    case Sym::Op::Div: {
      // Floor division is monotone in each operand on either side of a
      // zero divisor, so the corners of the non-zero sides bound it.
      Span r{kMax, kMin};
      auto side = [&](Wide b_lo, Wide b_hi) {
        if (b_lo > b_hi) return;
        for (Wide a : {x->lo, x->hi})
          for (Wide b : {b_lo, b_hi}) {
            const Wide q = floor_div(a, b);
            r = {std::min(r.lo, q), std::max(r.hi, q)};
          }
      };
      side(y->lo, std::min<Wide>(y->hi, -1));
      side(std::max<Wide>(y->lo, 1), y->hi);
      if (r.lo > r.hi) return Span{0, 0};  // divisor always zero
      return checked(r);
    }
    case Sym::Op::Mod: {
      // emod(a, b) is in [0, |b|); i64 min by -1 traps in the hardware
      // remainder, and |i64 min| does not fit.
      if (y->lo == kMin || (x->lo == kMin && y->lo <= -1 && -1 <= y->hi))
        return std::nullopt;
      const Wide m = std::max(-y->lo, y->hi);
      return Span{0, std::max<Wide>(m - 1, 0)};
    }
    default:
      break;
  }
  throw InternalError("may_overflow: bad Sym op");
}

}  // namespace

bool may_overflow(const SymPtr& s, i64 lo, i64 hi) {
  if (!bounds(s, lo, hi)) return true;
  // Kernels evaluate Affine and AffineMod subscripts from the closed
  // form, whose intermediates are not the tree's: a*i + c is monotone,
  // so its endpoints bound it. Coefficients that do not fit i64 make
  // the classification itself overflow.
  Shape sh = opq();
  try {
    sh = analyze(s);
  } catch (const InternalError&) {
    return true;
  }
  if (sh.kind != Shape::Kind::Lin && sh.kind != Shape::Kind::LinMod)
    return false;
  const Span ai = hull({Wide{sh.a} * lo, Wide{sh.a} * hi});
  if (!fits(ai) || !fits({ai.lo + sh.c, ai.hi + sh.c})) return true;
  return sh.kind == Shape::Kind::LinMod &&
         !fits({Wide{sh.d}, Wide{sh.z} - 1 + sh.d});
}

IndexFn classify(const SymPtr& s) {
  Shape shape = analyze(s);
  switch (shape.kind) {
    case Shape::Kind::Lin:
      if (shape.a == 0) return IndexFn::constant(shape.c);
      return IndexFn::affine(shape.a, shape.c);
    case Shape::Kind::LinMod:
      return IndexFn::affine_mod(shape.a, shape.c, shape.z, shape.d);
    case Shape::Kind::Mono:
      return IndexFn::monotone([s](i64 i) { return eval(s, i); }, shape.dir,
                               shape.nonneg, to_string(s, "%"));
    case Shape::Kind::Opq:
      return IndexFn::opaque([s](i64 i) { return eval(s, i); },
                             to_string(s, "%"));
  }
  throw InternalError("classify: bad shape");
}

}  // namespace vcal::fn
