// Array descriptors: the bridge between program-level arrays (named, with
// arbitrary inclusive index bounds) and machine-level storage (0-based,
// decomposed over processors).
//
// In the paper's terms an ArrayDesc is the view V = (K, dp, ip) that maps
// the program structure A onto its machine image A':
// ip(i) = (proc_A(i), local_A(i)).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "decomp/decomp_nd.hpp"

namespace vcal::decomp {

class ArrayDesc {
 public:
  /// Distributed array. size of dimension d (hi[d] - lo[d] + 1) must match
  /// decomp.dim(d).n().
  static ArrayDesc distributed(std::string name, std::vector<i64> lo,
                               std::vector<i64> hi, DecompND decomp);

  /// Array fully replicated on all `procs` machine processors; every copy
  /// is a row-major image of the whole array.
  static ArrayDesc replicated(std::string name, std::vector<i64> lo,
                              std::vector<i64> hi, i64 procs);

  /// Overlapped decomposition (the paper's Section 5 extension): a copy
  /// of this descriptor whose owners additionally cache `width` halo
  /// elements on each side of their block. Ownership and local
  /// addressing are unchanged; distributed executors refresh the halo
  /// copies before each clause and satisfy near-boundary remote reads
  /// from them. Only 1-D block decompositions support overlap.
  ArrayDesc with_halo(i64 width) const;

  /// Halo width (0 = no overlap).
  i64 halo() const noexcept { return halo_; }

  /// Global index interval [lo, hi] of rank p's halo on the given side
  /// (-1 = left of the block, +1 = right), clamped to the array; empty
  /// (lo > hi) when the rank owns nothing or the halo falls outside.
  /// Indices are program-level (include the array base offset).
  std::pair<i64, i64> halo_range(i64 p, int side) const;

  /// True when program-level index idx lies inside rank p's halo.
  bool in_halo(i64 p, const std::vector<i64>& idx) const;

  /// Length of rank p's dense halo row: the left range, then the right
  /// range, contiguous (0 without overlap).
  i64 halo_capacity(i64 p) const;

  /// Slot of program-level index g in rank p's halo row (left range
  /// first, then right), or -1 when g lies outside p's halo.
  i64 halo_slot(i64 p, i64 g) const;

  const std::string& name() const noexcept { return name_; }
  int ndims() const noexcept { return static_cast<int>(lo_.size()); }
  i64 lo(int d) const;
  i64 hi(int d) const;
  i64 size(int d) const;
  i64 total() const;
  bool is_replicated() const noexcept { return replicated_; }
  /// Number of machine processors the array is spread (or copied) over.
  i64 procs() const noexcept { return procs_; }
  /// Only valid for distributed arrays.
  const DecompND& decomp() const;

  /// True when idx is inside the declared bounds.
  bool in_bounds(const std::vector<i64>& idx) const;

  /// Owner rank of the element at program-level index idx. Replicated
  /// arrays return 0 (every rank holds a copy).
  i64 owner(const std::vector<i64>& idx) const;

  /// Linear local address of idx on its owner (or on any rank for a
  /// replicated array).
  i64 local_linear(const std::vector<i64>& idx) const;

  /// owner(idx) and local_linear(idx) together, with one division pair
  /// per dimension; an index outside the bounds is an internal error.
  Location locate(const std::vector<i64>& idx) const;

  /// Local storage capacity on rank p.
  i64 local_capacity(i64 p) const;

  /// Program-level index stored at (rank, linear); for replicated arrays
  /// rank is ignored.
  std::vector<i64> global_from_local(i64 rank, i64 linear) const;

  /// Row-major linearization of a program-level index over the full array
  /// (used by the sequential reference executor).
  i64 dense_linear(const std::vector<i64>& idx) const;

  /// E.g. "A[0:99] (block(b=25)) on 4".
  std::string str() const;

  /// Exact layout equality: name, bounds, decomposition and halo.
  bool operator==(const ArrayDesc&) const = default;

 private:
  ArrayDesc(std::string name, std::vector<i64> lo, std::vector<i64> hi,
            std::optional<DecompND> decomp, i64 procs);

  std::vector<i64> normalize(const std::vector<i64>& idx) const;

  std::string name_;
  std::vector<i64> lo_;
  std::vector<i64> hi_;
  std::optional<DecompND> decomp_;
  bool replicated_;
  i64 procs_;
  i64 halo_ = 0;
};

/// Calls `body` with every program-level index of `a` in row-major order.
template <typename F>
void for_each_index(const ArrayDesc& a, F&& body) {
  std::vector<i64> idx;
  idx.reserve(static_cast<std::size_t>(a.ndims()));
  for (int d = 0; d < a.ndims(); ++d) idx.push_back(a.lo(d));
  for (;;) {
    body(const_cast<const std::vector<i64>&>(idx));
    int d = a.ndims() - 1;
    while (d >= 0) {
      if (idx[static_cast<std::size_t>(d)] < a.hi(d)) {
        ++idx[static_cast<std::size_t>(d)];
        break;
      }
      idx[static_cast<std::size_t>(d)] = a.lo(d);
      --d;
    }
    if (d < 0) return;
  }
}

}  // namespace vcal::decomp
