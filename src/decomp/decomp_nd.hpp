// Multi-dimensional decompositions: one Decomp1D per array dimension over
// a Cartesian processor grid. Dimension d of the array is distributed over
// dimension d of the grid; a dimension written "*" in a distribute spec is
// not distributed at all (a Decomp1D over one processor).
#pragma once

#include <string>
#include <vector>

#include "decomp/decomp1d.hpp"
#include "decomp/proc_grid.hpp"

namespace vcal::decomp {

class DecompND {
 public:
  /// dims[d] decomposes dimension d; the grid extent of dimension d is
  /// dims[d].procs().
  explicit DecompND(std::vector<Decomp1D> dims);

  int ndims() const noexcept { return static_cast<int>(dims_.size()); }
  const Decomp1D& dim(int d) const;
  const ProcGrid& grid() const noexcept { return grid_; }
  i64 procs() const noexcept { return grid_.size(); }

  /// Linear rank of the processor owning the (0-based) element idx.
  i64 owner(const std::vector<i64>& idx) const;

  /// Per-dimension local addresses of idx on its owner.
  std::vector<i64> local_coords(const std::vector<i64>& idx) const;

  /// Row-major linearization of local_coords within the owner's local
  /// shape.
  i64 local_linear(const std::vector<i64>& idx) const;

  /// owner(idx - lo) and local_linear(idx - lo) together, allocation-free
  /// and with one division pair per dimension (Decomp1D::locate): idx is
  /// a global (lo-based) index and `lo` the array's per-dimension lower
  /// bounds, subtracted on the fly.
  Location locate_at(const std::vector<i64>& idx,
                     const std::vector<i64>& lo) const;

  /// Per-dimension local extents on processor `rank`.
  std::vector<i64> local_shape(i64 rank) const;

  /// Product of local_shape(rank).
  i64 local_capacity(i64 rank) const;

  /// Global (0-based) element for a local linear address on `rank`.
  std::vector<i64> global_from_local(i64 rank, i64 linear) const;

  /// E.g. "(block(b=16), scatter) on 4x2".
  std::string str() const;

  bool operator==(const DecompND& o) const noexcept {
    return dims_ == o.dims_;
  }

 private:
  std::vector<Decomp1D> dims_;
  ProcGrid grid_;
};

}  // namespace vcal::decomp
