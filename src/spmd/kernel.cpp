#include "spmd/kernel.hpp"

#include <algorithm>

#include "fn/classify.hpp"
#include "fn/sym.hpp"
#include "support/error.hpp"

namespace vcal::spmd {

namespace {

// Postorder flattening: children first, left before right, so the value
// stack combines operands in exactly the interpreter's order.
void flatten(const prog::ExprPtr& e, std::vector<ExprOp>& ops, int& depth,
             int& max_depth) {
  require(e != nullptr, "CompiledExpr: null Expr node");
  auto push = [&](ExprOp::Code code, int arg, double num) {
    ops.push_back({code, arg, num});
    ++depth;
    max_depth = std::max(max_depth, depth);
  };
  auto binary = [&](ExprOp::Code code) {
    flatten(e->lhs, ops, depth, max_depth);
    flatten(e->rhs, ops, depth, max_depth);
    ops.push_back({code, 0, 0.0});
    --depth;
  };
  switch (e->kind) {
    case prog::Expr::Kind::Number:
      push(ExprOp::Code::PushNum, 0, e->number);
      break;
    case prog::Expr::Kind::Ref:
      require(e->ref >= 0, "CompiledExpr: ref leaf without index");
      push(ExprOp::Code::PushRef, e->ref, 0.0);
      break;
    case prog::Expr::Kind::Loop:
      require(e->ref >= 0, "CompiledExpr: loop leaf without index");
      push(ExprOp::Code::PushLoop, e->ref, 0.0);
      break;
    case prog::Expr::Kind::Add:
      binary(ExprOp::Code::Add);
      break;
    case prog::Expr::Kind::Sub:
      binary(ExprOp::Code::Sub);
      break;
    case prog::Expr::Kind::Mul:
      binary(ExprOp::Code::Mul);
      break;
    case prog::Expr::Kind::Div:
      binary(ExprOp::Code::Div);
      break;
    case prog::Expr::Kind::Neg:
      flatten(e->lhs, ops, depth, max_depth);
      ops.push_back({ExprOp::Code::Neg, 0, 0.0});
      break;
  }
}

}  // namespace

CompiledExpr CompiledExpr::compile(const prog::ExprPtr& e) {
  CompiledExpr out;
  int depth = 0;
  flatten(e, out.ops_, depth, out.stack_need_);
  require(depth == 1, "CompiledExpr: unbalanced flattening");
  return out;
}

ClauseKernel ClauseKernel::compile(const prog::Clause& clause) {
  ClauseKernel k;
  k.rhs_ = CompiledExpr::compile(clause.rhs);
  int need = k.rhs_.stack_need();
  if (clause.guard) {
    CompiledGuard g;
    g.lhs = CompiledExpr::compile(clause.guard->lhs);
    g.rhs = CompiledExpr::compile(clause.guard->rhs);
    g.cmp = clause.guard->cmp;
    need = std::max(need,
                    std::max(g.lhs.stack_need(), g.rhs.stack_need()));
    k.guard_ = std::move(g);
  }
  k.stack_need_ = std::max(need, 1);

  auto lower = [&](const std::vector<prog::Subscript>& subs) {
    SubRecords out;
    out.affine.reserve(subs.size());
    for (std::size_t d = 0; d < subs.size(); ++d) {
      const prog::Subscript& s = subs[d];
      AffineSub a;
      if (s.loop_index < 0) {
        a.c = fn::eval(s.expr, 0);
      } else {
        fn::IndexFn f = fn::classify(s.expr);
        if (f.cls() == fn::FnClass::Constant) {
          a.c = f.const_value();
        } else if (f.cls() == fn::FnClass::Affine) {
          a.loop = s.loop_index;
          a.a = f.affine_a();
          a.c = f.affine_c();
        } else if (f.cls() == fn::FnClass::AffineMod) {
          // Inline record; like a generic one it keeps the clause off
          // the strided-run analysis.
          out.mod.push_back({d, s.loop_index, f.affine_a(), f.affine_c(),
                             f.mod_z(), f.mod_d()});
          k.affine_ = false;
        } else {
          // Monotone / Opaque: a generic record evaluated with fn::eval.
          out.generic.push_back({d, s.loop_index, s.expr});
          k.affine_ = false;
          k.piecewise_ = false;
        }
      }
      out.affine.push_back(a);
    }
    return out;
  };
  k.lhs_subs_ = lower(clause.lhs_subs);
  k.ref_subs_.reserve(clause.refs.size());
  for (const prog::ArrayRef& r : clause.refs)
    k.ref_subs_.push_back(lower(r.subs));
  return k;
}

ArrayAddr make_local_addr(const decomp::ArrayDesc& desc, i64 rank) {
  if (desc.is_replicated()) return make_dense_addr(desc);
  ArrayAddr aa;
  aa.desc = &desc;
  aa.coords = desc.decomp().grid().coords(rank);
  std::vector<i64> shape = desc.decomp().local_shape(rank);
  const int nd = desc.ndims();
  aa.weights.assign(static_cast<std::size_t>(nd), 1);
  for (int d = nd - 2; d >= 0; --d)
    aa.weights[static_cast<std::size_t>(d)] =
        aa.weights[static_cast<std::size_t>(d + 1)] *
        shape[static_cast<std::size_t>(d + 1)];
  return aa;
}

ArrayAddr make_dense_addr(const decomp::ArrayDesc& desc) {
  ArrayAddr aa;
  aa.desc = &desc;
  aa.dense = true;
  const int nd = desc.ndims();
  aa.weights.assign(static_cast<std::size_t>(nd), 1);
  for (int d = nd - 2; d >= 0; --d)
    aa.weights[static_cast<std::size_t>(d)] =
        aa.weights[static_cast<std::size_t>(d + 1)] * desc.size(d + 1);
  return aa;
}

namespace {

// Narrows [*klo, *khi] to the ks with vlo <= v0 + k*dv <= vhi.
void clamp_interval(i64 v0, i64 dv, i64 vlo, i64 vhi, i64* klo, i64* khi) {
  if (dv == 0) {
    if (!in_range(v0, vlo, vhi)) {
      *klo = 0;
      *khi = -1;
    }
    return;
  }
  if (dv > 0) {
    *klo = std::max(*klo, ceildiv(vlo - v0, dv));
    *khi = std::min(*khi, floordiv(vhi - v0, dv));
  } else {
    *klo = std::max(*klo, ceildiv(vhi - v0, dv));
    *khi = std::min(*khi, floordiv(vlo - v0, dv));
  }
}

}  // namespace

bool strided_run(const ArrayAddr& aa, const i64* g0, const i64* dg,
                 i64 count, StridedRun* out) {
  const decomp::ArrayDesc& desc = *aa.desc;
  const int nd = desc.ndims();
  if (count <= 0) return false;
  i64 klo = 0, khi = count - 1;
  i64 stride = 0;

  // Pass 1: intersect the per-dimension bounds/ownership k-intervals and
  // accumulate the local-address stride. Every Decomp1D kind is an
  // instance of block-scatter BS(b): proc(v) = (v div b) mod P and
  // local(v) = (v div bP)*b + v mod b, so one uniform analysis covers
  // block (b = ceil(n/P)), scatter (b = 1), block-scatter, and
  // non-distributed "*" dimensions (P = 1).
  for (int d = 0; d < nd; ++d) {
    const i64 v0 = g0[d] - desc.lo(d);
    const i64 dv = count == 1 ? 0 : dg[d];
    const i64 n = desc.size(d);
    clamp_interval(v0, dv, 0, n - 1, &klo, &khi);
    if (klo > khi) return false;
    i64 lstride;
    if (aa.dense || desc.is_replicated()) {
      lstride = dv;
    } else {
      const decomp::Decomp1D& dd = desc.decomp().dim(d);
      const i64 b = dd.block_size();
      const i64 P = dd.procs();
      const i64 period = b * P;
      const i64 t = aa.coords[static_cast<std::size_t>(d)];
      if (emod(dv, period) == 0) {
        // The owner is constant along the progression: v div b advances
        // by dv/b per step, a multiple of P.
        if (emod(floordiv(v0, b), P) != t) return false;  // never local
        lstride = (dv / period) * b;
      } else {
        // Irregular stride: keep the intersection with the first block
        // owned by t that the progression meets; the remainder of the
        // run (other cycles of a block-cyclic layout) stays per-element.
        const i64 va = v0 + klo * dv;
        const i64 start_blk = floordiv(va, b);
        const i64 blk = dv > 0 ? start_blk + emod(t - start_blk, P)
                               : start_blk - emod(start_blk - t, P);
        clamp_interval(v0, dv, blk * b, blk * b + b - 1, &klo, &khi);
        if (klo > khi) return false;
        lstride = dv;
      }
    }
    stride += lstride * aa.weights[static_cast<std::size_t>(d)];
  }

  // Pass 2: the base address at k = klo, through the same local() map
  // the per-element path uses.
  i64 addr0 = 0;
  for (int d = 0; d < nd; ++d) {
    const i64 dv = count == 1 ? 0 : dg[d];
    const i64 v = g0[d] - desc.lo(d) + klo * dv;
    i64 lc;
    if (aa.dense || desc.is_replicated())
      lc = v;
    else
      lc = desc.decomp().dim(d).local(v);
    addr0 += lc * aa.weights[static_cast<std::size_t>(d)];
  }

  out->k_lo = klo;
  out->k_hi = khi;
  out->addr0 = addr0;
  out->stride = stride;
  return true;
}

i64 in_bounds_prefix(const decomp::ArrayDesc& desc, const i64* g0,
                     const i64* dg, i64 count) {
  const int nd = desc.ndims();
  bool inside = true;
  for (int d = 0; inside && d < nd; ++d) {
    const i64 lo = desc.lo(d), hi = desc.hi(d);
    inside = in_range(g0[d], lo, hi) &&
             in_range(g0[d] + (count - 1) * dg[d], lo, hi);
  }
  if (inside) return count;
  i64 klo = 0, khi = count - 1;
  for (int d = 0; d < nd; ++d)
    clamp_interval(g0[d], dg[d], desc.lo(d), desc.hi(d), &klo, &khi);
  return klo > 0 ? 0 : std::max<i64>(khi + 1, 0);
}

std::shared_ptr<const ClauseKernel> KernelCache::get(
    const prog::Clause& clause) {
  {
    std::lock_guard<std::mutex> lock(m_);
    auto it = map_.find(&clause);
    if (it != map_.end()) {
      ++counters_.hits;
      return it->second;
    }
  }
  // Compile outside the lock; first insert wins a racing build.
  auto kern = std::make_shared<const ClauseKernel>(
      ClauseKernel::compile(clause));
  std::lock_guard<std::mutex> lock(m_);
  ++counters_.compiles;
  auto [it, inserted] = map_.emplace(&clause, std::move(kern));
  if (!inserted) ++counters_.hits;
  return it->second;
}

KernelCache::Counters KernelCache::counters() const {
  std::lock_guard<std::mutex> lock(m_);
  return counters_;
}

}  // namespace vcal::spmd
