#include "spmd/clause_plan.hpp"

#include <algorithm>
#include <iterator>

#include "fn/classify.hpp"
#include "spmd/kernel.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::spmd {

using decomp::ArrayDesc;
using gen::Method;
using gen::Schedule;

IterationSpace::IterationSpace(std::vector<gen::Schedule> dims)
    : dims_(std::move(dims)) {
  require(!dims_.empty(), "IterationSpace: needs at least one dimension");
  cache_.reserve(dims_.size());
  for (const gen::Schedule& s : dims_) {
    DimCache dc;
    if (s.is_closed_form()) {
      // Range enumeration: keep the pieces, never expand them. The
      // charge equals what one materialize() call would have counted.
      dc.ranged = true;
      dc.pieces = s.pieces();
      for (const gen::Piece& p : dc.pieces) {
        ++dc.charge.pieces;
        dc.charge.loop_iters += p.count;
        dc.charge.yielded += p.count;
      }
      dc.total = dc.charge.yielded;
    } else {
      // Probing schedule (runtime resolution / enumerate-k): pay the
      // probes once, replay their recorded charge per enumeration.
      dc.values = s.materialize(&dc.charge);
      dc.total = static_cast<i64>(dc.values.size());
    }
    cache_.push_back(std::move(dc));
  }
}

const gen::Schedule& IterationSpace::dim(int d) const {
  require(d >= 0 && d < dims(), "IterationSpace::dim out of range");
  return dims_[static_cast<std::size_t>(d)];
}

i64 IterationSpace::count() const {
  i64 c = 1;
  for (const auto& dc : cache_) c = mul_checked(c, dc.total);
  return c;
}

std::string IterationSpace::str() const {
  std::vector<std::string> parts;
  parts.reserve(dims_.size());
  for (const auto& s : dims_) parts.push_back(s.str());
  return join(parts, " x ");
}

namespace {

// Schedule iterating lo..hi unconditionally (an unconstrained loop dim).
Schedule full_range(i64 lo, i64 hi) {
  if (lo > hi) return Schedule::empty(Method::Replicated);
  return Schedule::closed_form(Method::Replicated,
                               {{lo, hi - lo + 1, 1}});
}

const ArrayDesc& lookup(const ArrayTable& arrays, const std::string& name) {
  auto it = arrays.find(name);
  if (it == arrays.end())
    throw SemanticError("array " + name + " has no descriptor");
  return it->second;
}

}  // namespace

ClausePlan::ClausePlan(prog::Clause clause, ArrayDesc lhs_desc)
    : clause_(std::move(clause)), lhs_desc_(std::move(lhs_desc)) {}

ClausePlan ClausePlan::build(const prog::Clause& clause,
                             const ArrayTable& arrays,
                             gen::BuildOptions opts) {
  clause.validate();
  const ArrayDesc& lhs = lookup(arrays, clause.lhs_array);
  ClausePlan plan(clause, lhs);
  plan.procs_ = lhs.procs();

  auto build_dims = [&](const std::string& array, const ArrayDesc& desc,
                        const std::vector<prog::Subscript>& subs)
      -> std::vector<DimConstraint> {
    if (static_cast<int>(subs.size()) != desc.ndims())
      throw SemanticError(cat("array ", array, " subscripted with ",
                              subs.size(), " dims but declared with ",
                              desc.ndims()));
    if (desc.procs() != plan.procs_)
      throw SemanticError(cat("array ", array, " lives on ", desc.procs(),
                              " processors but the clause target uses ",
                              plan.procs_));
    std::vector<DimConstraint> dims;
    if (desc.is_replicated()) return dims;  // no ownership constraints
    for (std::size_t d = 0; d < subs.size(); ++d) {
      const prog::Subscript& s = subs[d];
      DimConstraint dc;
      dc.loop_index = s.loop_index;
      const decomp::Decomp1D& dd = desc.decomp().dim(static_cast<int>(d));
      if (s.loop_index < 0) {
        // Translate rejects constant subscripts outside the bounds.
        i64 v = fn::eval(s.expr, 0) - desc.lo(static_cast<int>(d));
        if (!in_range(v, 0, dd.n() - 1))
          throw InternalError(cat("constant subscript of ", array,
                                  " dimension ", d, " is out of bounds"));
        dc.pinned_coord = dd.proc(v);
      } else {
        // A loop variable may constrain several dimensions (e.g. the
        // diagonal M[i, i]); space_for intersects the schedules.
        auto ul = static_cast<std::size_t>(s.loop_index);
        // Normalize the subscript to the 0-based machine image: owner
        // arithmetic works on f(i) - lo.
        fn::IndexFn f = fn::IndexFn::affine(1, -desc.lo(static_cast<int>(d)))
                            .after(fn::classify(s.expr));
        const prog::LoopDim& loop = plan.clause_.loops[ul];
        dc.plan = gen::OwnerComputePlan::build(std::move(f), dd, loop.lo,
                                               loop.hi, opts);
      }
      dims.push_back(std::move(dc));
    }
    return dims;
  };

  plan.lhs_dims_ = build_dims(clause.lhs_array, lhs, clause.lhs_subs);
  plan.refs_.reserve(clause.refs.size());
  for (const prog::ArrayRef& r : clause.refs) {
    const ArrayDesc& rd = lookup(arrays, r.array);
    RefPlan rp{rd, build_dims(r.array, rd, r.subs)};
    plan.refs_.push_back(std::move(rp));
  }

  // Cache every rank's spaces now: executors enumerate each of them at
  // least once per clause execution, and caching here is what lets the
  // accessors hand out references instead of rebuilding (and, for
  // probing schedules, re-scanning) per call.
  plan.modify_spaces_.reserve(static_cast<std::size_t>(plan.procs_));
  plan.reside_spaces_.reserve(static_cast<std::size_t>(plan.procs_));
  for (i64 p = 0; p < plan.procs_; ++p) {
    plan.modify_spaces_.push_back(plan.space_for(plan.lhs_dims_, lhs, p));
    std::vector<std::optional<IterationSpace>> rs;
    rs.reserve(plan.refs_.size());
    for (const RefPlan& rp : plan.refs_) {
      if (rp.desc.is_replicated())
        rs.emplace_back();
      else
        rs.emplace_back(plan.space_for(rp.dims, rp.desc, p));
    }
    plan.reside_spaces_.push_back(std::move(rs));
  }
  plan.row_len_.reserve((plan.refs_.size() + 1) *
                        static_cast<std::size_t>(plan.procs_));
  for (i64 q = 0; q < plan.procs_; ++q)
    plan.row_len_.push_back(lhs.local_capacity(q));
  for (const RefPlan& rp : plan.refs_)
    for (i64 q = 0; q < plan.procs_; ++q)
      plan.row_len_.push_back(rp.desc.local_capacity(q));

  plan.kernel_ =
      std::make_shared<const ClauseKernel>(ClauseKernel::compile(clause));
  return plan;
}

const ArrayDesc& ClausePlan::ref_desc(int r) const {
  require(r >= 0 && r < static_cast<int>(refs_.size()),
          "ClausePlan::ref_desc out of range");
  return refs_[static_cast<std::size_t>(r)].desc;
}

namespace {

// Compresses a sorted index list into contiguous-run pieces.
std::vector<gen::Piece> runs_to_pieces(const std::vector<i64>& sorted) {
  std::vector<gen::Piece> pieces;
  std::size_t k = 0;
  while (k < sorted.size()) {
    std::size_t j = k;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[j] + 1) ++j;
    pieces.push_back(
        {sorted[k], static_cast<i64>(j - k + 1), 1});
    k = j + 1;
  }
  return pieces;
}

}  // namespace

IterationSpace ClausePlan::space_for(
    const std::vector<DimConstraint>& constraints, const ArrayDesc& desc,
    i64 rank) const {
  std::vector<Schedule> dims;
  dims.reserve(clause_.loops.size());
  for (const prog::LoopDim& l : clause_.loops)
    dims.push_back(full_range(l.lo, l.hi));

  if (!desc.is_replicated()) {
    std::vector<i64> coords = desc.decomp().grid().coords(rank);
    // A loop variable constrained by several array dimensions (e.g. the
    // diagonal M[i, i]) takes the intersection of their schedules.
    std::vector<int> constrained(clause_.loops.size(), 0);
    for (std::size_t d = 0; d < constraints.size(); ++d) {
      const DimConstraint& dc = constraints[d];
      if (dc.loop_index < 0) {
        if (dc.pinned_coord != coords[d]) {
          // This rank owns nothing: collapse the space.
          for (auto& s : dims) s = Schedule::empty(Method::Theorem1Constant);
          return IterationSpace(std::move(dims));
        }
        continue;
      }
      auto l = static_cast<std::size_t>(dc.loop_index);
      Schedule next = dc.plan->for_proc(coords[d]);
      if (constrained[l] == 0) {
        dims[l] = std::move(next);
      } else {
        std::vector<i64> a = dims[l].materialize_sorted();
        std::vector<i64> b = next.materialize_sorted();
        std::vector<i64> both;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(both));
        dims[l] = Schedule::closed_form(Method::Intersection,
                                        runs_to_pieces(both));
      }
      ++constrained[l];
    }
  }
  return IterationSpace(std::move(dims));
}

const IterationSpace& ClausePlan::modify_space(i64 rank) const {
  require(in_range(rank, 0, procs_ - 1),
          "ClausePlan::modify_space rank out of range");
  return modify_spaces_[static_cast<std::size_t>(rank)];
}

bool ClausePlan::ref_needs_comm(int r) const {
  return !ref_desc(r).is_replicated();
}

const IterationSpace& ClausePlan::reside_space(i64 rank, int r) const {
  require(ref_needs_comm(r), "reside_space on a replicated reference");
  require(in_range(rank, 0, procs_ - 1),
          "ClausePlan::reside_space rank out of range");
  return *reside_spaces_[static_cast<std::size_t>(rank)]
                        [static_cast<std::size_t>(r)];
}

std::vector<i64> ClausePlan::lhs_index(
    const std::vector<i64>& loop_vals) const {
  return prog::eval_subs(clause_.lhs_subs, loop_vals);
}

std::vector<i64> ClausePlan::ref_index(
    int r, const std::vector<i64>& loop_vals) const {
  require(r >= 0 && r < static_cast<int>(clause_.refs.size()),
          "ClausePlan::ref_index out of range");
  return prog::eval_subs(clause_.refs[static_cast<std::size_t>(r)].subs,
                         loop_vals);
}

void ClausePlan::lhs_index_into(const std::vector<i64>& loop_vals,
                                std::vector<i64>& out) const {
  prog::eval_subs_into(clause_.lhs_subs, loop_vals, out);
}

void ClausePlan::ref_index_into(int r, const std::vector<i64>& loop_vals,
                                std::vector<i64>& out) const {
  require(r >= 0 && r < static_cast<int>(clause_.refs.size()),
          "ClausePlan::ref_index out of range");
  prog::eval_subs_into(clause_.refs[static_cast<std::size_t>(r)].subs,
                       loop_vals, out);
}

i64 ClausePlan::lhs_owner(const std::vector<i64>& loop_vals) const {
  return lhs_desc_.owner(lhs_index(loop_vals));
}

i64 ClausePlan::ref_owner(int r, const std::vector<i64>& loop_vals) const {
  return ref_desc(r).owner(ref_index(r, loop_vals));
}

std::string ClausePlan::describe() const {
  std::string out = "clause: " + clause_.str();
  out += "\n  target " + lhs_desc_.str();
  for (std::size_t d = 0; d < lhs_dims_.size(); ++d) {
    const DimConstraint& dc = lhs_dims_[d];
    if (dc.loop_index < 0)
      out += cat("\n  lhs dim ", d, ": pinned to grid coordinate ",
                 dc.pinned_coord);
    else
      out += cat("\n  lhs dim ", d, ": ", dc.plan->describe());
  }
  return out;
}

}  // namespace vcal::spmd
