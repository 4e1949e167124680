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

/// A stride s split for division-free stepping (Decomp1D::step): with
/// s = (C*P + O)*b + F, 0 <= O < P and 0 <= F < b, i + s lies O owners
/// and F offsets further on, and local = C*b + F further on, before the
/// two carries Cursor::advance applies.
struct Step {
  i64 b = 1;
  i64 procs = 1;
  i64 offset = 0;  // F
  i64 owner = 0;   // O
  i64 local = 0;   // C*b + F
};

/// Decomp1D::locate of an index i, kept up to date along a progression
/// i, i + s, i + 2s, ... without dividing: offset is i mod b.
struct Cursor {
  i64 owner = 0;
  i64 local = 0;
  i64 offset = 0;

  void advance(const Step& s) noexcept {
    offset += s.offset;
    local += s.local;
    owner += s.owner;
    if (offset >= s.b) {  // into the next block
      offset -= s.b;
      local -= s.b;
      ++owner;
    }
    if (owner >= s.procs) {  // into the next cycle
      owner -= s.procs;
      local += s.b;
    }
  }
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

  /// locate(i) as a Cursor to step from. Precondition: 0 <= i < n.
  Cursor cursor(i64 i) const {
    const i64 q = i / b_;
    const i64 o = i - q * b_;
    return {q % procs_, q / procs_ * b_ + o, o};
  }

  /// Stride s (any sign) split for Cursor::advance: one floor division
  /// pair. A cursor advanced from locate(i) stays equal to locate(i +
  /// k*s) while those indices lie in [0, n).
  Step step(i64 s) const {
    const i64 q = floordiv(s, b_);
    const i64 c = floordiv(q, procs_);
    const i64 f = s - q * b_;
    return {b_, procs_, f, q - c * procs_, c * b_ + f};
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
