// Compiled clause kernels: the allocation-free fast path of the runtime.
//
// The paper replaces O(n) run-time membership tests with closed-form
// generator functions; this layer removes the interpreter tax that was
// still paid on every *generated* index. A ClauseKernel is built once per
// clause (and memoized next to its ClausePlan, so it is cached per layout
// like the plan) and is total: every clause compiles, and every executor
// runs every clause through it. It provides:
//
//   1. RHS expressions and guards lowered to a flat postfix bytecode
//      array evaluated on a small caller-owned value stack — no
//      shared_ptr tree recursion in the inner loop. Operand order is the
//      tree's left-then-right order, so doubles combine in exactly the
//      reference interpreter's order and results are bit-identical.
//   2. Subscript records: a Constant or Affine dimension (the paper's
//      Table I classes, via fn::classify) becomes an {loop, a, c}
//      record, an AffineMod one an inline {loop, a, c, z, d} record
//      (which ModSub::piece splits into affine pieces along a run); only
//      Monotone and Opaque dimensions keep a generic record evaluated
//      with fn::eval. The message tag is a dot product with precomputed
//      weights for every clause.
//   3. Strided-local run analysis (affine clauses only): for an
//      innermost-loop arithmetic progression of global indices, the
//      maximal k-subrange that is in-bounds, owned by a given rank, and
//      advances its local address by a constant stride. Executors fuse
//      that subrange into a single strided loop over the local Store
//      row; everything outside it runs element at a time.
//
// Everything here is observably equivalent to the reference interpreter
// (prog::eval / prog::eval_subs_into, kept by SeqExecutor's reference
// mode): same results bit-for-bit, same counters, same exceptions in the
// same order.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "decomp/array_desc.hpp"
#include "fn/sym.hpp"
#include "gen/schedule.hpp"
#include "vcal/clause.hpp"

namespace vcal::spmd {

/// One postfix bytecode instruction. Push* grow the stack; the
/// arithmetic ops pop their operands and push the result.
struct ExprOp {
  enum class Code : unsigned char {
    PushNum,   // push num
    PushRef,   // push ref_values[arg]
    PushLoop,  // push (double)loop_vals[arg]
    Add,
    Sub,
    Mul,
    Div,       // IEEE double division: div-by-zero yields inf/nan,
               // exactly as the interpreter's '/'
    Neg,
  };
  Code code = Code::PushNum;
  int arg = 0;
  double num = 0.0;
};

/// A flattened prog::Expr. eval() needs a caller-owned scratch stack of
/// at least stack_need() doubles and performs no allocation.
class CompiledExpr {
 public:
  CompiledExpr() = default;

  static CompiledExpr compile(const prog::ExprPtr& e);

  double eval(const double* ref_values, const i64* loop_vals,
              double* stack) const noexcept {
    double* sp = stack;
    for (const ExprOp& op : ops_) {
      switch (op.code) {
        case ExprOp::Code::PushNum:
          *sp++ = op.num;
          break;
        case ExprOp::Code::PushRef:
          *sp++ = ref_values[op.arg];
          break;
        case ExprOp::Code::PushLoop:
          *sp++ = static_cast<double>(loop_vals[op.arg]);
          break;
        case ExprOp::Code::Add:
          sp[-2] = sp[-2] + sp[-1];
          --sp;
          break;
        case ExprOp::Code::Sub:
          sp[-2] = sp[-2] - sp[-1];
          --sp;
          break;
        case ExprOp::Code::Mul:
          sp[-2] = sp[-2] * sp[-1];
          --sp;
          break;
        case ExprOp::Code::Div:
          sp[-2] = sp[-2] / sp[-1];
          --sp;
          break;
        case ExprOp::Code::Neg:
          sp[-1] = -sp[-1];
          break;
      }
    }
    return sp[-1];
  }

  int stack_need() const noexcept { return stack_need_; }
  const std::vector<ExprOp>& ops() const noexcept { return ops_; }

 private:
  std::vector<ExprOp> ops_;
  int stack_need_ = 0;
};

/// A compiled prog::Guard: both sides flattened, compared with the same
/// IEEE semantics as Guard::holds (NaN compares false except under NE).
struct CompiledGuard {
  CompiledExpr lhs;
  CompiledExpr rhs;
  prog::Guard::Cmp cmp = prog::Guard::Cmp::LT;

  bool holds(const double* ref_values, const i64* loop_vals,
             double* stack) const noexcept {
    double a = lhs.eval(ref_values, loop_vals, stack);
    double b = rhs.eval(ref_values, loop_vals, stack);
    switch (cmp) {
      case prog::Guard::Cmp::LT: return a < b;
      case prog::Guard::Cmp::LE: return a <= b;
      case prog::Guard::Cmp::GT: return a > b;
      case prog::Guard::Cmp::GE: return a >= b;
      case prog::Guard::Cmp::EQ: return a == b;
      case prog::Guard::Cmp::NE: return a != b;
    }
    return false;
  }
};

/// One affine subscript dimension: value = a*vals[loop] + c, or the
/// constant c when loop < 0.
struct AffineSub {
  int loop = -1;
  i64 a = 0;
  i64 c = 0;

  i64 at(const i64* vals) const noexcept {
    return loop < 0 ? c : a * vals[loop] + c;
  }
};

/// One AffineMod subscript dimension: (a*vals[loop] + c) mod z + d,
/// through the same checked support::math helpers as fn::eval. Sema
/// rejects subscripts whose arithmetic can overflow over the loop range,
/// so the record and the tree agree on every value they can meet.
struct ModSub {
  std::size_t dim = 0;  // subscript position it fills
  int loop = 0;
  i64 a = 0;
  i64 c = 0;
  i64 z = 1;  // > 0
  i64 d = 0;

  i64 at(const i64* vals) const {
    return add_checked(emod(add_checked(mul_checked(a, vals[loop]), c), z),
                       d);
  }

  /// Section 3.3's breakpoint split, one piece at a time: at an element
  /// whose pre-mod value a*i + c is u, on a run along which that value
  /// advances by du, the subscript is `value` and advances by du for
  /// `len` elements (1 <= len <= left) before (a*i + c) mod z wraps. One
  /// division, no allocation; |du| >= z gives 1-element pieces.
  struct Piece {
    i64 value = 0;
    i64 len = 0;
  };
  Piece piece(i64 u, i64 du, i64 left) const {
    const i64 r = emod(u, z);
    i64 len = left;
    if (len > 1 && du > 0)
      len = std::min(len, (z - 1 - r) / du + 1);
    else if (len > 1 && du < 0)
      len = std::min(len, r / -du + 1);
    return {r + d, len};
  }
};

/// One Monotone or Opaque subscript dimension: fn::eval(expr,
/// vals[loop]), exactly as prog::eval_subs_into computes it — same
/// values, same exceptions.
struct GenericSub {
  std::size_t dim = 0;  // subscript position it fills
  int loop = 0;
  fn::SymPtr expr;
};

/// The lowered subscripts of one array access. Every dimension has an
/// affine record; a non-affine dimension's record is a placeholder that
/// its mod or generic record overwrites. `mod` and `generic` are empty
/// in affine clauses.
struct SubRecords {
  std::vector<AffineSub> affine;
  std::vector<ModSub> mod;
  std::vector<GenericSub> generic;
};

/// Precomputed local addressing for one (array, rank) pair: the grid
/// coordinates of the rank and the row-major weights of the image the
/// executor addresses (the rank's local block, or the full dense image
/// for replicated arrays and shared-memory stores).
struct ArrayAddr {
  const decomp::ArrayDesc* desc = nullptr;
  bool dense = false;          // address the full dense row-major image
  std::vector<i64> coords;     // rank's grid coordinates (when !dense)
  std::vector<i64> weights;    // row-major weights of the image
};

/// Addressing of `desc`'s local storage on `rank` (matches
/// ArrayDesc::local_linear for elements the rank owns).
ArrayAddr make_local_addr(const decomp::ArrayDesc& desc, i64 rank);

/// Addressing of the full dense image (matches ArrayDesc::dense_linear).
ArrayAddr make_dense_addr(const decomp::ArrayDesc& desc);

/// A constant-stride subrange of an index progression: for k in
/// [k_lo, k_hi] the element is in bounds, stored by the addressed rank,
/// and lives at local address addr0 + (k - k_lo)*stride.
struct StridedRun {
  i64 k_lo = 0;
  i64 k_hi = -1;
  i64 addr0 = 0;
  i64 stride = 0;
};

/// Fills the program-level index progression of one array over an
/// innermost-loop run: g_d(k) = g0[d] + k*dg[d] for k = 0..run.count-1.
/// Outer loop values are fixed in `vals`; the subscript bound to the
/// innermost loop contributes the run's start/stride scaled by its
/// affine coefficient.
inline void fill_progression(const std::vector<AffineSub>& subs,
                             const std::vector<i64>& vals, int inner,
                             const gen::Piece& run, i64* g0, i64* dg) {
  for (std::size_t d = 0; d < subs.size(); ++d) {
    const AffineSub& s = subs[d];
    if (s.loop == inner) {
      g0[d] = s.a * run.start + s.c;
      dg[d] = s.a * run.stride;
    } else {
      g0[d] = s.at(vals.data());
      dg[d] = 0;
    }
  }
}

/// Analyzes the progression g_d(k) = g0[d] + k*dg[d] (program-level
/// indices, k = 0..count-1) against `aa`. Returns false when no
/// non-empty constant-stride local subrange can be proven (the caller
/// handles every element individually); true fills `out` with the
/// maximal such subrange the analysis finds. Block and scatter
/// decompositions whose stride matches the distribution period resolve
/// exactly; irregular block-cyclic remainders keep only the first owned
/// block (the rest stays per-element).
bool strided_run(const ArrayAddr& aa, const i64* g0, const i64* dg,
                 i64 count, StridedRun* out);

/// How many leading elements of the progression g_d(k) = g0[d] +
/// k*dg[d] (program-level indices, k = 0..count-1) lie inside desc's
/// bounds: count when all do. Each g_d is monotone, so the in-bounds ks
/// form one interval and the two ends decide, without dividing, unless
/// one of them is out.
i64 in_bounds_prefix(const decomp::ArrayDesc& desc, const i64* g0,
                     const i64* dg, i64 count);

/// The compiled form of one clause. Compilation never fails and covers
/// every clause: the RHS and guard always lower to bytecode and every
/// subscript to a record, so subs_into(), tag(), rhs() and guard() are
/// valid for all clauses. affine() only gates the strided-run analysis
/// (fill_progression / strided_run over the affine records) and the JIT.
class ClauseKernel {
 public:
  static ClauseKernel compile(const prog::Clause& clause);

  /// True when every subscript (LHS and refs) is Constant or Affine in
  /// its loop variable, so the affine records alone describe the clause.
  bool affine() const noexcept { return affine_; }

  /// True when every subscript is Constant, Affine or AffineMod: no
  /// generic record, so along an innermost run every access is
  /// piecewise affine (ModSub::piece splits it).
  bool piecewise() const noexcept { return piecewise_; }

  const CompiledExpr& rhs() const noexcept { return rhs_; }
  /// nullptr when the clause has no guard.
  const CompiledGuard* guard() const noexcept {
    return guard_ ? &*guard_ : nullptr;
  }
  /// Scratch doubles eval()/holds() need (max over RHS and guard sides).
  int stack_need() const noexcept { return stack_need_; }

  /// Total bytecode ops across the RHS and both guard sides — a size
  /// proxy reported with plan-cache miss events.
  int op_count() const noexcept {
    std::size_t n = rhs_.ops().size();
    if (guard_) n += guard_->lhs.ops().size() + guard_->rhs.ops().size();
    return static_cast<int>(n);
  }

  const SubRecords& lhs_subs() const noexcept { return lhs_subs_; }
  const SubRecords& ref_subs(int r) const {
    return ref_subs_[static_cast<std::size_t>(r)];
  }

  /// prog::eval_subs_into through the records: the affine records
  /// first, then the mod and generic ones over their placeholders.
  static void subs_into(const SubRecords& subs, const i64* vals,
                        std::vector<i64>& out) {
    out.resize(subs.affine.size());
    for (std::size_t d = 0; d < subs.affine.size(); ++d)
      out[d] = subs.affine[d].at(vals);
    for (const ModSub& m : subs.mod) out[m.dim] = m.at(vals);
    for (const GenericSub& g : subs.generic)
      out[g.dim] = fn::eval(g.expr, vals[g.loop]);
  }

  /// Identical to ClausePlan::message_tag(r, vals), as a dot product.
  i64 tag(int r, const i64* vals) const noexcept {
    i64 t = tag_base_ + r;
    for (std::size_t d = 0; d < tag_w_.size(); ++d)
      t += vals[d] * tag_w_[d];
    return t;
  }

 private:
  CompiledExpr rhs_;
  std::optional<CompiledGuard> guard_;
  int stack_need_ = 1;
  bool affine_ = true;
  bool piecewise_ = true;
  SubRecords lhs_subs_;
  std::vector<SubRecords> ref_subs_;
  std::vector<i64> tag_w_;  // per-loop-dim weight, refs factor included
  i64 tag_base_ = 0;
};

/// Thread-safe memo of compiled clause kernels, keyed by clause
/// address. Only valid while the program that owns the clauses is
/// alive and unmoved — the serve layer hangs one cache off each cached
/// compile entry for exactly that reason, so repeated executions of
/// one program share kernels instead of rebuilding them per request.
class KernelCache {
 public:
  /// Fetch or compile the kernel for `clause`. Concurrent first
  /// requests may both compile; the first insert wins and the loser's
  /// work is discarded (ClauseKernel::compile is pure).
  std::shared_ptr<const ClauseKernel> get(const prog::Clause& clause);

  struct Counters {
    i64 hits = 0;
    i64 compiles = 0;  // kernels actually built (discarded races too)
  };
  Counters counters() const;

 private:
  mutable std::mutex m_;
  std::unordered_map<const prog::Clause*,
                     std::shared_ptr<const ClauseKernel>>
      map_;
  Counters counters_;
};

}  // namespace vcal::spmd
