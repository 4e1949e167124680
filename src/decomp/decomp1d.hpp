// One-dimensional data decompositions (Figure 2 of the paper).
//
// All three paper decompositions are instances of block-scatter BS(b)
// ((i div b) mod pmax owns element i):
//
//   block        BS(ceil(n / P))   one contiguous block per processor
//   scatter      BS(1)             cyclic / round-robin
//   blockscatter BS(b)             blocks of b dealt cyclically
//
// plus `replicated` (every processor holds the whole array). The Kind tag
// is kept because the optimizer has cheaper closed forms for the special
// cases (Table I columns).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/math.hpp"

namespace vcal::decomp {

/// Where an element lives: its owner and its local address there.
struct Location {
  i64 owner = 0;
  i64 local = 0;
};

class Decomp1D {
 public:
  enum class Kind { Block, Scatter, BlockScatter, Replicated };

  /// Block decomposition of n elements over P processors, b = ceil(n/P).
  static Decomp1D block(i64 n, i64 procs);
  /// Scatter (cyclic) decomposition.
  static Decomp1D scatter(i64 n, i64 procs);
  /// Block-scatter BS(b): blocks of size b dealt round-robin.
  static Decomp1D block_scatter(i64 n, i64 procs, i64 b);
  /// Every processor stores all n elements (local == global).
  static Decomp1D replicated(i64 n, i64 procs);

  Kind kind() const noexcept { return kind_; }
  i64 n() const noexcept { return n_; }
  i64 procs() const noexcept { return procs_; }
  i64 block_size() const noexcept { return b_; }

  /// Owner of global element i (0 <= i < n). For Replicated, returns 0 by
  /// convention (every processor also holds a copy; see is_replicated()).
  i64 proc(i64 i) const;

  /// Local address of global element i on its owner (or on any processor
  /// for Replicated).
  i64 local(i64 i) const;

  /// proc(i) and local(i) together, from one division pair: i splits
  /// into block q and offset o, and q into cycle q / P and owner q mod P.
  /// Precondition: 0 <= i < n (callers have bounds-checked the index).
  Location locate(i64 i) const {
    const i64 q = i / b_;
    return {q % procs_, q / procs_ * b_ + (i - q * b_)};
  }

  /// Inverse map: global index of local element l on processor p.
  i64 global(i64 p, i64 l) const;

  /// Number of local slots processor p needs (max local(i) + 1 over the
  /// elements p owns; closed form, no scanning).
  i64 local_capacity(i64 p) const {
    require(in_range(p, 0, procs_ - 1), "Decomp1D::local_capacity bad proc");
    if (kind_ == Kind::Replicated) return n_;
    return full_ + std::clamp(rest_ - p * b_, i64{0}, b_);
  }

  /// True when every processor holds every element.
  bool is_replicated() const noexcept {
    return kind_ == Kind::Replicated;
  }

  /// All global indices owned by p, ascending (reference/test helper).
  std::vector<i64> owned_indices(i64 p) const;

  /// E.g. "block(b=4)", "scatter", "blockscatter(b=2)", "replicated".
  std::string str() const;

  bool operator==(const Decomp1D& o) const noexcept {
    return kind_ == o.kind_ && n_ == o.n_ && procs_ == o.procs_ &&
           b_ == o.b_;
  }

 private:
  Decomp1D(Kind kind, i64 n, i64 procs, i64 b);
  Kind kind_;
  i64 n_;
  i64 procs_;
  i64 b_;
  // local_capacity's division-free terms: b slots per full cycle of
  // b * P elements, and the elements left in the final partial cycle.
  i64 full_ = 0;
  i64 rest_ = 0;
};

}  // namespace vcal::decomp
