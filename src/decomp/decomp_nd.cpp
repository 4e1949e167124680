#include "decomp/decomp_nd.hpp"

#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::decomp {

namespace {

std::vector<i64> grid_extents(const std::vector<Decomp1D>& dims) {
  std::vector<i64> e;
  e.reserve(dims.size());
  for (const auto& d : dims) e.push_back(d.procs());
  return e;
}

}  // namespace

DecompND::DecompND(std::vector<Decomp1D> dims)
    : dims_(std::move(dims)), grid_(grid_extents(dims_)) {
  for (const auto& d : dims_) {
    require(!d.is_replicated() || d.procs() == 1,
            "DecompND: replicated dimensions must use one grid processor; "
            "replicate whole arrays via ArrayDesc instead");
  }
}

const Decomp1D& DecompND::dim(int d) const {
  require(d >= 0 && d < ndims(), "DecompND::dim bad dimension");
  return dims_[static_cast<std::size_t>(d)];
}

i64 DecompND::owner(const std::vector<i64>& idx) const {
  require(idx.size() == dims_.size(), "DecompND::owner arity mismatch");
  std::vector<i64> coords(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    coords[d] = dims_[d].proc(idx[d]);
  return grid_.rank(coords);
}

std::vector<i64> DecompND::local_coords(const std::vector<i64>& idx) const {
  require(idx.size() == dims_.size(),
          "DecompND::local_coords arity mismatch");
  std::vector<i64> loc(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    loc[d] = dims_[d].local(idx[d]);
  return loc;
}

i64 DecompND::local_linear(const std::vector<i64>& idx) const {
  std::vector<i64> loc = local_coords(idx);
  std::vector<i64> shape = local_shape(owner(idx));
  i64 lin = 0;
  for (std::size_t d = 0; d < loc.size(); ++d) lin = lin * shape[d] + loc[d];
  return lin;
}

Location DecompND::locate_at(const std::vector<i64>& idx,
                             const std::vector<i64>& lo) const {
  require(idx.size() == dims_.size() && lo.size() == dims_.size(),
          "DecompND::locate_at arity mismatch");
  // The owner's local shape in dimension d is dim d's capacity at its
  // own proc coordinate, so the row-major fold needs neither the coords
  // round trip through the grid nor any temporary vectors.
  Location at;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const i64 g = idx[d] - lo[d];
    require(in_range(g, 0, dims_[d].n() - 1),
            "DecompND::locate_at index out of range");
    const Location l = dims_[d].locate(g);
    at.owner = at.owner * dims_[d].procs() + l.owner;
    at.local = at.local * dims_[d].local_capacity(l.owner) + l.local;
  }
  return at;
}

std::vector<i64> DecompND::local_shape(i64 rank) const {
  std::vector<i64> coords = grid_.coords(rank);
  std::vector<i64> shape(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    shape[d] = dims_[d].local_capacity(coords[d]);
  return shape;
}

i64 DecompND::local_capacity(i64 rank) const {
  require(in_range(rank, 0, grid_.size() - 1), "ProcGrid::coords bad rank");
  // local_shape's product, with the row-major grid coordinates peeled
  // off in place: the inspector asks once per (ref, rank) per clause.
  i64 stride = grid_.size();
  i64 cap = 1;
  for (const Decomp1D& dim : dims_) {
    stride /= dim.procs();
    cap = mul_checked(cap, dim.local_capacity(rank / stride % dim.procs()));
  }
  return cap;
}

std::vector<i64> DecompND::global_from_local(i64 rank, i64 linear) const {
  std::vector<i64> coords = grid_.coords(rank);
  std::vector<i64> shape = local_shape(rank);
  std::vector<i64> loc(dims_.size());
  for (std::size_t d = dims_.size(); d-- > 0;) {
    require(shape[d] > 0, "global_from_local: empty local shape");
    loc[d] = linear % shape[d];
    linear /= shape[d];
  }
  require(linear == 0, "global_from_local: linear address out of range");
  std::vector<i64> idx(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    idx[d] = dims_[d].global(coords[d], loc[d]);
  return idx;
}

std::string DecompND::str() const {
  std::vector<std::string> parts;
  parts.reserve(dims_.size());
  for (const auto& d : dims_) parts.push_back(d.str());
  return "(" + join(parts, ", ") + ") on " + grid_.str();
}

}  // namespace vcal::decomp
