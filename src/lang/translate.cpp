#include "lang/translate.hpp"

#include <map>

#include "fn/classify.hpp"
#include "lang/parser.hpp"
#include "lang/sema.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::lang {

namespace {

[[noreturn]] void err_at(const std::string& msg, int line, int col) {
  throw SemanticError(cat(msg, " (at ", line, ":", col, ")"));
}

// A view resolved down to a real array: subscripts in terms of `param`.
struct ResolvedView {
  std::string base;
  std::vector<AExprPtr> subs;
  std::string param;
  i64 lo = 0, hi = -1;
};
using ViewTable = std::map<std::string, ResolvedView>;

// Collects the distinct variable names used in an expression.
void collect_vars(const AExprPtr& e, std::vector<std::string>& out) {
  if (!e) return;
  if (e->kind == AExpr::Kind::Var) {
    for (const std::string& v : out)
      if (v == e->name) return;
    out.push_back(e->name);
    return;
  }
  for (const AExprPtr& s : e->subs) collect_vars(s, out);
  collect_vars(e->lhs, out);
  collect_vars(e->rhs, out);
}

// Resolves every view declaration down to real arrays, composing views
// over views by substitution (the calculus' contraction rule).
ViewTable resolve_views(const AProgram& ast,
                        const spmd::ArrayTable& arrays) {
  ViewTable table;
  for (const AViewDecl& decl : ast.views) {
    if (arrays.count(decl.name) || table.count(decl.name))
      err_at("view " + decl.name + " collides with an existing name",
             decl.line, decl.col);
    std::vector<std::string> vars;
    for (const AExprPtr& sub : decl.subs) collect_vars(sub, vars);
    if (vars.size() != 1)
      err_at("view " + decl.name +
                 " must use exactly one parameter variable in its map",
             decl.line, decl.col);
    ResolvedView rv;
    rv.param = vars[0];
    rv.lo = eval_const_int(decl.lo);
    rv.hi = eval_const_int(decl.hi);
    if (rv.lo > rv.hi)
      err_at("view " + decl.name + " has empty bounds", decl.line,
             decl.col);

    auto base_view = table.find(decl.base);
    if (base_view != table.end()) {
      // View over a view: compose by substitution.
      if (decl.subs.size() != 1)
        err_at("view " + decl.name + " over view " + decl.base +
                   " needs exactly one subscript",
               decl.line, decl.col);
      rv.base = base_view->second.base;
      for (const AExprPtr& s : base_view->second.subs)
        rv.subs.push_back(
            substitute(s, base_view->second.param, decl.subs[0]));
    } else {
      auto it = arrays.find(decl.base);
      if (it == arrays.end())
        err_at("view " + decl.name + " names undeclared base " +
                   decl.base,
               decl.line, decl.col);
      if (static_cast<int>(decl.subs.size()) != it->second.ndims())
        err_at("view " + decl.name + " subscripts " + decl.base +
                   " with the wrong number of dimensions",
               decl.line, decl.col);
      rv.base = decl.base;
      rv.subs = decl.subs;
    }
    table.emplace(decl.name, std::move(rv));
  }
  return table;
}

// Rewrites a (possibly view) use into its base-array form.
void apply_views(const ViewTable& views, std::string& array,
                 std::vector<AExprPtr>& subs, int line, int col) {
  auto it = views.find(array);
  if (it == views.end()) return;
  if (subs.size() != 1)
    err_at("view " + array + " takes exactly one subscript", line, col);
  std::vector<AExprPtr> rewritten;
  rewritten.reserve(it->second.subs.size());
  for (const AExprPtr& s : it->second.subs)
    rewritten.push_back(substitute(s, it->second.param, subs[0]));
  array = it->second.base;
  subs = std::move(rewritten);
}

// Lowers a subscript expression into a Sym tree over the single loop
// variable it uses; returns that variable's loop index (-1 if constant).
class SubscriptLowering {
 public:
  SubscriptLowering(const std::vector<prog::LoopDim>& loops,
                    const spmd::ArrayTable& arrays)
      : loops_(loops), arrays_(arrays) {}

  /// Lowers the subscript of `array`'s dimension `dim`.
  prog::Subscript lower(const AExprPtr& e, const std::string& array,
                        int dim) {
    var_index_ = -1;
    fn::SymPtr sym = walk(e);
    check_overflow(sym, e, array);
    if (var_index_ < 0) check_constant(sym, e, array, dim);
    return prog::Subscript{var_index_, std::move(sym)};
  }

 private:
  fn::SymPtr walk(const AExprPtr& e) {
    switch (e->kind) {
      case AExpr::Kind::Int:
        return fn::cnst(e->int_value);
      case AExpr::Kind::Real:
        err_at("real literal in a subscript", e->line, e->col);
      case AExpr::Kind::Var: {
        int idx = -1;
        for (std::size_t k = 0; k < loops_.size(); ++k)
          if (loops_[k].var == e->name) idx = static_cast<int>(k);
        if (idx < 0)
          err_at("unknown variable '" + e->name + "' in a subscript",
                 e->line, e->col);
        if (var_index_ >= 0 && var_index_ != idx)
          err_at("subscript mixes loop variables '" +
                     loops_[static_cast<std::size_t>(var_index_)].var +
                     "' and '" + e->name +
                     "'; each subscript dimension may use one",
                 e->line, e->col);
        var_index_ = idx;
        return fn::var();
      }
      case AExpr::Kind::Ref:
        err_at("array read of '" + e->name +
                   "' in a subscript (indirect addressing is not "
                   "supported)",
               e->line, e->col);
      case AExpr::Kind::Neg:
        return fn::neg(walk(e->lhs));
      case AExpr::Kind::Add:
        return fn::add(walk(e->lhs), walk(e->rhs));
      case AExpr::Kind::Sub:
        return fn::sub(walk(e->lhs), walk(e->rhs));
      case AExpr::Kind::Mul:
        return fn::mul(walk(e->lhs), walk(e->rhs));
      case AExpr::Kind::IntDiv:
        return fn::intdiv(walk(e->lhs), divisor(e, "div"));
      case AExpr::Kind::Mod:
        return fn::mod(walk(e->lhs), divisor(e, "mod"));
      case AExpr::Kind::RealDiv:
        err_at("'/' in a subscript; use 'div'", e->line, e->col);
    }
    throw InternalError("subscript lowering: bad kind");
  }

  // The right operand of a `div` / `mod`; a constant zero is a user
  // error, reported at the operator.
  fn::SymPtr divisor(const AExprPtr& e, const char* op) {
    fn::SymPtr d = walk(e->rhs);
    if (fn::is_constant(d) && fn::eval(d, 0) == 0)
      err_at(cat("'", op, "' by constant zero in a subscript"), e->line,
             e->col);
    return d;
  }

  // Subscripts evaluate in checked i64 at run time: reject one whose
  // arithmetic may overflow over its loop range here, at the subscript,
  // rather than fault mid-run.
  void check_overflow(const fn::SymPtr& sym, const AExprPtr& e,
                      const std::string& array) const {
    i64 lo = 0, hi = 0;
    std::string var = "i";
    if (var_index_ >= 0) {
      const prog::LoopDim& l = loops_[static_cast<std::size_t>(var_index_)];
      lo = l.lo;
      hi = l.hi;
      var = l.var;
    }
    if (!fn::may_overflow(sym, lo, hi)) return;
    std::string msg = cat("subscript '", fn::to_string(sym, var), "' of ",
                          array, " overflows i64");
    if (var_index_ >= 0) msg += cat(" for ", var, " in ", lo, ":", hi);
    err_at(msg, e->line, e->col);
  }

  // Loop ranges are never empty, so a constant subscript is evaluated
  // on every execution of its clause: one outside the declared bounds
  // is rejected here, at the subscript, for every target alike. Arity
  // mismatches are left to the clause checks.
  void check_constant(const fn::SymPtr& sym, const AExprPtr& e,
                      const std::string& array, int dim) const {
    auto it = arrays_.find(array);
    if (it == arrays_.end() || dim >= it->second.ndims()) return;
    const decomp::ArrayDesc& desc = it->second;
    const i64 v = fn::eval(sym, 0);
    if (in_range(v, desc.lo(dim), desc.hi(dim))) return;
    err_at(cat("constant subscript ", v, " of ", array, " dimension ", dim,
               " is outside its bounds ", desc.lo(dim), ":", desc.hi(dim)),
           e->line, e->col);
  }

  const std::vector<prog::LoopDim>& loops_;
  const spmd::ArrayTable& arrays_;
  int var_index_ = -1;
};

// Lowers value expressions, deduplicating array reads into the clause's
// reference table.
class ValueLowering {
 public:
  ValueLowering(const std::vector<std::string>& loop_vars,
                const std::vector<prog::LoopDim>& loops,
                std::vector<prog::ArrayRef>& refs, const ViewTable& views,
                const spmd::ArrayTable& arrays)
      : loop_vars_(loop_vars),
        loops_(loops),
        refs_(refs),
        views_(views),
        arrays_(arrays) {}

  prog::ExprPtr lower(const AExprPtr& e) {
    switch (e->kind) {
      case AExpr::Kind::Int:
        return prog::number(static_cast<double>(e->int_value));
      case AExpr::Kind::Real:
        return prog::number(e->real_value);
      case AExpr::Kind::Var: {
        for (std::size_t k = 0; k < loop_vars_.size(); ++k)
          if (loop_vars_[k] == e->name)
            return prog::loop_var(static_cast<int>(k));
        err_at("unknown variable '" + e->name +
                   "' (scalar variables are not supported)",
               e->line, e->col);
      }
      case AExpr::Kind::Ref:
        return prog::ref(intern_ref(e));
      case AExpr::Kind::Neg:
        return prog::neg(lower(e->lhs));
      case AExpr::Kind::Add:
        return prog::add(lower(e->lhs), lower(e->rhs));
      case AExpr::Kind::Sub:
        return prog::sub(lower(e->lhs), lower(e->rhs));
      case AExpr::Kind::Mul:
        return prog::mul(lower(e->lhs), lower(e->rhs));
      case AExpr::Kind::RealDiv:
        return prog::divide(lower(e->lhs), lower(e->rhs));
      case AExpr::Kind::IntDiv:
      case AExpr::Kind::Mod:
        err_at("'div'/'mod' are integer subscript operators; values use "
               "'/'",
               e->line, e->col);
    }
    throw InternalError("value lowering: bad kind");
  }

 private:
  int intern_ref(const AExprPtr& e) {
    std::string array = e->name;
    std::vector<AExprPtr> subs = e->subs;
    apply_views(views_, array, subs, e->line, e->col);
    SubscriptLowering subl(loops_, arrays_);
    prog::ArrayRef r;
    r.array = std::move(array);
    for (const AExprPtr& s : subs)
      r.subs.push_back(
          subl.lower(s, r.array, static_cast<int>(r.subs.size())));
    std::string key = r.str(loop_vars_);
    auto it = interned_.find(key);
    if (it != interned_.end()) return it->second;
    int idx = static_cast<int>(refs_.size());
    refs_.push_back(std::move(r));
    interned_[key] = idx;
    return idx;
  }

  const std::vector<std::string>& loop_vars_;
  const std::vector<prog::LoopDim>& loops_;
  std::vector<prog::ArrayRef>& refs_;
  const ViewTable& views_;
  const spmd::ArrayTable& arrays_;
  std::map<std::string, int> interned_;
};

prog::Clause lower_assign(const AAssign& assign,
                          const std::vector<prog::LoopDim>& loops,
                          prog::Ordering ord,
                          const std::optional<ACond>& guard,
                          const ViewTable& views,
                          const spmd::ArrayTable& arrays) {
  prog::Clause clause;
  clause.loops = loops;
  clause.ord = ord;

  std::string lhs_array = assign.array;
  std::vector<AExprPtr> lhs_subs = assign.subs;
  apply_views(views, lhs_array, lhs_subs, assign.line, assign.col);
  clause.lhs_array = std::move(lhs_array);

  std::vector<std::string> vars;
  for (const prog::LoopDim& l : loops) vars.push_back(l.var);

  SubscriptLowering subl(loops, arrays);
  for (const AExprPtr& s : lhs_subs)
    clause.lhs_subs.push_back(subl.lower(
        s, clause.lhs_array, static_cast<int>(clause.lhs_subs.size())));

  ValueLowering vall(vars, loops, clause.refs, views, arrays);
  clause.rhs = vall.lower(assign.value);
  if (guard) {
    prog::Guard g;
    g.cmp = guard->cmp;
    g.lhs = vall.lower(guard->lhs);
    g.rhs = vall.lower(guard->rhs);
    clause.guard = std::move(g);
  }
  clause.validate();
  return clause;
}

std::vector<prog::LoopDim> lower_iters(const std::vector<AIter>& iters) {
  std::vector<prog::LoopDim> loops;
  std::map<std::string, bool> seen;
  for (const AIter& it : iters) {
    if (seen[it.var])
      err_at("loop variable '" + it.var + "' bound twice", it.line,
             it.col);
    seen[it.var] = true;
    prog::LoopDim l;
    l.var = it.var;
    l.lo = eval_const_int(it.lo);
    l.hi = eval_const_int(it.hi);
    if (l.lo > l.hi)
      err_at(cat("empty loop range ", l.lo, ":", l.hi, " for '", it.var,
                 "'"),
             it.line, it.col);
    loops.push_back(std::move(l));
  }
  return loops;
}

}  // namespace

spmd::Program translate(const AProgram& ast) {
  spmd::Program program;
  program.procs = ast.procs;
  program.arrays = analyze_decls(ast);
  ViewTable views = resolve_views(ast, program.arrays);

  for (const AStmt& stmt : ast.stmts) {
    if (const auto* loop = std::get_if<ALoop>(&stmt)) {
      std::vector<prog::LoopDim> loops = lower_iters(loop->iters);
      prog::Ordering ord =
          loop->parallel ? prog::Ordering::Par : prog::Ordering::Seq;
      for (const AAssign& a : loop->body)
        program.steps.emplace_back(
            lower_assign(a, loops, ord, loop->guard, views, program.arrays));
    } else if (const auto* assign = std::get_if<AAssign>(&stmt)) {
      // A bare assignment: a degenerate single-iteration clause.
      std::vector<prog::LoopDim> loops{{"_", 0, 0}};
      program.steps.emplace_back(lower_assign(*assign, loops,
                                              prog::Ordering::Par,
                                              std::nullopt, views,
                                              program.arrays));
    } else {
      const auto& redist = std::get<ARedistribute>(stmt);
      auto it = program.arrays.find(redist.name);
      if (it == program.arrays.end())
        err_at("redistribute names undeclared array " + redist.name,
               redist.line, redist.col);
      const decomp::ArrayDesc& old_desc = it->second;
      std::vector<i64> lo, hi;
      for (int d = 0; d < old_desc.ndims(); ++d) {
        lo.push_back(old_desc.lo(d));
        hi.push_back(old_desc.hi(d));
      }
      spmd::RedistStep step{
          redist.name,
          build_desc(redist.name, lo, hi, redist.spec, ast.procs)};
      program.steps.emplace_back(std::move(step));
    }
  }
  program.validate();
  return program;
}

spmd::Program compile(const std::string& source) {
  return translate(parse(source));
}

}  // namespace vcal::lang
