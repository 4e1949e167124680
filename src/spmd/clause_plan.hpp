// Per-clause SPMD plans: the compiled form of Sections 2.6-2.10.
//
// A ClausePlan is built once per (clause, current decompositions) — the
// compile-time step — and answers the per-processor questions every
// target machine template needs:
//
//   modify_space(p)     the paper's Modify_p as an iteration space
//   reside_space(p, r)  Reside_p for right-hand-side reference r
//   lhs_owner(i) etc.   the proc()/local() arithmetic for single tuples
//   kernel()            the clause's compiled bytecode/affine form
//
// Multi-dimensional clauses decompose per dimension: loop variable l that
// appears in LHS subscript dimension d is constrained by the owner-compute
// plan of (f_d, decomposition of dimension d); unconstrained variables get
// their full range; constant subscript dimensions pin grid coordinates.
// Sema (lang/sema.cpp) enforces the shape restrictions this requires.
//
// Iteration spaces are cached per rank at build time, and each space
// caches its dimensions' enumerations: closed-form schedules keep their
// [start, count, stride] pieces (never materialized to vectors), probing
// schedules materialize exactly once and replay the recorded EnumStats
// charge on every enumeration — so repeated executions see the same
// counters the paper's per-execution accounting defines, without paying
// the probes again.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decomp/array_desc.hpp"
#include "gen/optimizer.hpp"
#include "vcal/clause.hpp"

namespace vcal::spmd {

class ClauseKernel;

using ArrayTable = std::map<std::string, decomp::ArrayDesc>;

/// Cartesian product of per-loop-dimension schedules.
class IterationSpace {
 public:
  explicit IterationSpace(std::vector<gen::Schedule> dims);

  int dims() const noexcept { return static_cast<int>(dims_.size()); }
  const gen::Schedule& dim(int d) const;

  /// Walks the product in lexicographic order; `body` receives the
  /// loop-variable values. Enumeration reads the cached per-dimension
  /// form built at construction; `stats` receives the same counts a
  /// fresh per-call materialization would have charged.
  template <typename F>
  void for_each(F&& body, gen::EnumStats* stats = nullptr) const {
    const std::size_t nd = dims_.size();
    for (std::size_t d = 0; d < nd; ++d) {
      if (stats) *stats += cache_[d].charge;
      if (cache_[d].total == 0) return;
    }
    std::vector<i64> cur(nd);
    std::vector<Cursor> pos(nd);
    for (std::size_t d = 0; d < nd; ++d) cur[d] = first_value(d);
    for (;;) {
      body(cur);
      std::size_t d = nd;
      while (d-- > 0) {
        if (advance(d, pos[d], cur[d])) break;
        if (d == 0) return;
      }
    }
  }

  /// Enumerates the innermost dimension as arithmetic-progression runs:
  /// `body(vals, run)` is called with vals[0..dims-2] holding the outer
  /// loop values and vals[dims-1] free for the body to use as scratch;
  /// `run` generates run.start + j*run.stride for j = 0..run.count-1.
  /// Element order and `stats` charges are identical to for_each.
  template <typename F>
  void for_each_run(F&& body, gen::EnumStats* stats = nullptr) const {
    const std::size_t nd = dims_.size();
    for (std::size_t d = 0; d < nd; ++d) {
      if (stats) *stats += cache_[d].charge;
      if (cache_[d].total == 0) return;
    }
    const std::size_t inner = nd - 1;
    const DimCache& ic = cache_[inner];
    std::vector<i64> cur(nd);
    std::vector<Cursor> pos(nd);
    for (std::size_t d = 0; d < inner; ++d) cur[d] = first_value(d);
    for (;;) {
      if (ic.ranged) {
        for (const gen::Piece& p : ic.pieces) body(cur, p);
      } else {
        for (i64 v : ic.values) body(cur, gen::Piece{v, 1, 1});
      }
      if (inner == 0) return;
      std::size_t d = inner;
      while (d-- > 0) {
        if (advance(d, pos[d], cur[d])) break;
        if (d == 0) return;
      }
    }
  }

  /// Product of per-dimension counts.
  i64 count() const;

  /// The EnumStats one for_each / for_each_run call charges, without
  /// walking the space.
  gen::EnumStats charge() const {
    gen::EnumStats s;
    for (const DimCache& c : cache_) {
      s += c.charge;
      if (c.total == 0) break;
    }
    return s;
  }

  std::string str() const;

 private:
  // Cached enumeration of one dimension. Closed-form schedules keep
  // their pieces (enumerated lazily, never expanded); probing schedules
  // hold the values of their single materialization plus the EnumStats
  // that materialization cost, replayed per enumeration.
  struct DimCache {
    std::vector<gen::Piece> pieces;  // when ranged
    std::vector<i64> values;         // when !ranged
    bool ranged = false;
    gen::EnumStats charge;           // per-enumeration stats replay
    i64 total = 0;                   // elements yielded per enumeration
  };

  struct Cursor {
    std::size_t piece = 0;  // ranged dims
    i64 k = 0;
    std::size_t vi = 0;     // value dims
  };

  i64 first_value(std::size_t d) const {
    const DimCache& c = cache_[d];
    return c.ranged ? c.pieces[0].start : c.values[0];
  }

  // Steps dimension d's cursor; false (and a reset to the first value)
  // when it wrapped.
  bool advance(std::size_t d, Cursor& cur, i64& value) const {
    const DimCache& c = cache_[d];
    if (c.ranged) {
      const gen::Piece& p = c.pieces[cur.piece];
      if (++cur.k < p.count) {
        value += p.stride;
        return true;
      }
      cur.k = 0;
      if (++cur.piece < c.pieces.size()) {
        value = c.pieces[cur.piece].start;
        return true;
      }
      cur.piece = 0;
      value = c.pieces[0].start;
      return false;
    }
    if (++cur.vi < c.values.size()) {
      value = c.values[cur.vi];
      return true;
    }
    cur.vi = 0;
    value = c.values[0];
    return false;
  }

  std::vector<gen::Schedule> dims_;
  std::vector<DimCache> cache_;
};

class ClausePlan {
 public:
  /// Compiles `clause` against the current array descriptors. Throws
  /// SemanticError when the clause violates the shape restrictions
  /// (unknown arrays, arity mismatches, duplicated loop variables in one
  /// array's subscripts) and CodegenError for unsupported targets.
  static ClausePlan build(const prog::Clause& clause,
                          const ArrayTable& arrays,
                          gen::BuildOptions opts = {});

  const prog::Clause& clause() const noexcept { return clause_; }
  const decomp::ArrayDesc& lhs_desc() const noexcept { return lhs_desc_; }
  const decomp::ArrayDesc& ref_desc(int r) const;
  i64 procs() const noexcept { return procs_; }

  /// True when the LHS array is replicated (every processor computes
  /// every index; no ownership filtering).
  bool lhs_replicated() const noexcept { return lhs_desc_.is_replicated(); }

  /// The paper's Modify_p for machine rank p (cached per rank).
  const IterationSpace& modify_space(i64 rank) const;

  /// True when reads of ref r may be remote (false for replicated refs).
  bool ref_needs_comm(int r) const;

  /// The paper's Reside_p for ref r on machine rank p (cached per rank).
  const IterationSpace& reside_space(i64 rank, int r) const;

  /// The clause compiled to bytecode + subscript records (built once per
  /// plan, so cached per layout with it).
  const ClauseKernel& kernel() const noexcept { return *kernel_; }

  /// Program-level index of the LHS element at these loop values.
  std::vector<i64> lhs_index(const std::vector<i64>& loop_vals) const;
  /// Program-level index of ref r at these loop values.
  std::vector<i64> ref_index(int r, const std::vector<i64>& loop_vals) const;

  /// Allocation-free variants for the executors' inner loops: the index
  /// is written into a caller-owned scratch buffer (resized as needed).
  void lhs_index_into(const std::vector<i64>& loop_vals,
                      std::vector<i64>& out) const;
  void ref_index_into(int r, const std::vector<i64>& loop_vals,
                      std::vector<i64>& out) const;

  /// Owner rank of the LHS element (replicated LHS: the asking rank
  /// conceptually owns it; callers must check lhs_replicated() first).
  i64 lhs_owner(const std::vector<i64>& loop_vals) const;
  i64 ref_owner(int r, const std::vector<i64>& loop_vals) const;

  /// Lengths of the local rows on rank q — the descriptors' local
  /// capacities, which size every store row and copy-in snapshot —
  /// tabled once per plan, so once per layout: the LHS's, and ref r's.
  i64 lhs_row_len(i64 q) const noexcept {
    return row_len_[static_cast<std::size_t>(q)];
  }
  i64 ref_row_len(int r, i64 q) const noexcept {
    return row_len_[static_cast<std::size_t>((r + 1) * procs_ + q)];
  }

  /// Methods chosen for every LHS dimension (reporting/debugging).
  std::string describe() const;

 private:
  // Per array-dimension constraint: either a plan keyed to a loop
  // variable, or a pinned grid coordinate from a constant subscript.
  struct DimConstraint {
    int loop_index = -1;                      // -1: constant subscript
    std::optional<gen::OwnerComputePlan> plan;  // set when loop_index >= 0
    i64 pinned_coord = 0;                     // set when loop_index == -1
  };

  struct RefPlan {
    decomp::ArrayDesc desc;
    std::vector<DimConstraint> dims;
  };

  ClausePlan(prog::Clause clause, decomp::ArrayDesc lhs_desc);

  IterationSpace space_for(const std::vector<DimConstraint>& constraints,
                           const decomp::ArrayDesc& desc, i64 rank) const;

  prog::Clause clause_;
  decomp::ArrayDesc lhs_desc_;
  std::vector<DimConstraint> lhs_dims_;
  std::vector<RefPlan> refs_;
  i64 procs_ = 1;
  // Per-rank space caches, built eagerly by build(): modify_spaces_[p]
  // and reside_spaces_[p][r] (nullopt for replicated refs).
  std::vector<IterationSpace> modify_spaces_;
  std::vector<std::vector<std::optional<IterationSpace>>> reside_spaces_;
  std::vector<i64> row_len_;  // [a * procs_ + q]: a = 0 the LHS, 1 + r ref r
  std::shared_ptr<const ClauseKernel> kernel_;
};

}  // namespace vcal::spmd
