#include "fn/sym.hpp"

#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::fn {

namespace {

SymPtr make(Sym::Op op, i64 value, SymPtr lhs, SymPtr rhs) {
  auto s = std::make_shared<Sym>();
  s->op = op;
  s->value = value;
  s->lhs = std::move(lhs);
  s->rhs = std::move(rhs);
  return s;
}

// Precedence for printing: higher binds tighter.
int prec(Sym::Op op) {
  switch (op) {
    case Sym::Op::Const:
    case Sym::Op::Var:
      return 4;
    case Sym::Op::Neg:
      return 3;
    case Sym::Op::Mul:
    case Sym::Op::Div:
    case Sym::Op::Mod:
      return 2;
    case Sym::Op::Add:
    case Sym::Op::Sub:
      return 1;
  }
  return 0;
}

std::string print(const SymPtr& s, const std::string& v, int parent_prec) {
  std::string out;
  switch (s->op) {
    case Sym::Op::Const:
      out = std::to_string(s->value);
      break;
    case Sym::Op::Var:
      out = v;
      break;
    case Sym::Op::Neg:
      out = "-" + print(s->lhs, v, prec(Sym::Op::Neg));
      break;
    case Sym::Op::Add:
      out = print(s->lhs, v, 1) + " + " + print(s->rhs, v, 1);
      break;
    case Sym::Op::Sub:
      out = print(s->lhs, v, 1) + " - " + print(s->rhs, v, 2);
      break;
    case Sym::Op::Mul:
      out = print(s->lhs, v, 2) + "*" + print(s->rhs, v, 2);
      break;
    case Sym::Op::Div:
      out = print(s->lhs, v, 2) + " div " + print(s->rhs, v, 3);
      break;
    case Sym::Op::Mod:
      out = print(s->lhs, v, 2) + " mod " + print(s->rhs, v, 3);
      break;
  }
  if (prec(s->op) < parent_prec) return "(" + out + ")";
  return out;
}

}  // namespace

SymPtr cnst(i64 v) { return make(Sym::Op::Const, v, nullptr, nullptr); }
SymPtr var() { return make(Sym::Op::Var, 0, nullptr, nullptr); }
SymPtr add(SymPtr a, SymPtr b) {
  return make(Sym::Op::Add, 0, std::move(a), std::move(b));
}
SymPtr sub(SymPtr a, SymPtr b) {
  return make(Sym::Op::Sub, 0, std::move(a), std::move(b));
}
SymPtr mul(SymPtr a, SymPtr b) {
  return make(Sym::Op::Mul, 0, std::move(a), std::move(b));
}
SymPtr intdiv(SymPtr a, SymPtr b) {
  return make(Sym::Op::Div, 0, std::move(a), std::move(b));
}
SymPtr mod(SymPtr a, SymPtr b) {
  return make(Sym::Op::Mod, 0, std::move(a), std::move(b));
}
SymPtr neg(SymPtr a) { return make(Sym::Op::Neg, 0, std::move(a), nullptr); }

namespace {

// The right operand of a Div/Mod node at i. Translate rejects a constant
// zero; a divisor that reaches zero for some loop value is a fault of
// the program, raised alike by every executor that evaluates it.
i64 divisor(const SymPtr& s, i64 i, const char* op) {
  const i64 d = eval(s->rhs, i);
  if (d == 0) throw RuntimeFault(cat("'", op, "' by zero in a subscript"));
  return d;
}

}  // namespace

i64 eval(const SymPtr& s, i64 i) {
  require(s != nullptr, "eval of null Sym");
  switch (s->op) {
    case Sym::Op::Const:
      return s->value;
    case Sym::Op::Var:
      return i;
    case Sym::Op::Neg:
      return -eval(s->lhs, i);
    case Sym::Op::Add:
      return add_checked(eval(s->lhs, i), eval(s->rhs, i));
    case Sym::Op::Sub:
      return add_checked(eval(s->lhs, i), -eval(s->rhs, i));
    case Sym::Op::Mul:
      return mul_checked(eval(s->lhs, i), eval(s->rhs, i));
    case Sym::Op::Div: {
      const i64 a = eval(s->lhs, i);
      return floordiv(a, divisor(s, i, "div"));
    }
    case Sym::Op::Mod: {
      const i64 a = eval(s->lhs, i);
      return emod(a, divisor(s, i, "mod"));
    }
  }
  throw InternalError("eval: bad Sym op");
}

std::string to_string(const SymPtr& s, const std::string& v) {
  return print(s, v, 0);
}

bool is_constant(const SymPtr& s) {
  switch (s->op) {
    case Sym::Op::Const:
      return true;
    case Sym::Op::Var:
      return false;
    case Sym::Op::Neg:
      return is_constant(s->lhs);
    default:
      return is_constant(s->lhs) && is_constant(s->rhs);
  }
}

}  // namespace vcal::fn
