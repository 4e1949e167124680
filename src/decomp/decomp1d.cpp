#include "decomp/decomp1d.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::decomp {

Decomp1D::Decomp1D(Kind kind, i64 n, i64 procs, i64 b)
    : kind_(kind), n_(n), procs_(procs), b_(b) {
  require(n >= 0, "Decomp1D: negative size");
  require(procs >= 1, "Decomp1D: needs at least one processor");
  require(b >= 1, "Decomp1D: block size must be >= 1");
  const i64 period = b_ * procs_;
  full_ = floordiv(n_, period) * b_;
  rest_ = emod(n_, period);
}

Decomp1D Decomp1D::block(i64 n, i64 procs) {
  i64 b = n > 0 ? ceildiv(n, procs) : 1;
  return Decomp1D(Kind::Block, n, procs, b);
}

Decomp1D Decomp1D::scatter(i64 n, i64 procs) {
  return Decomp1D(Kind::Scatter, n, procs, 1);
}

Decomp1D Decomp1D::block_scatter(i64 n, i64 procs, i64 b) {
  return Decomp1D(Kind::BlockScatter, n, procs, b);
}

Decomp1D Decomp1D::replicated(i64 n, i64 procs) {
  return Decomp1D(Kind::Replicated, n, procs, n > 0 ? n : 1);
}

i64 Decomp1D::proc(i64 i) const {
  require(in_range(i, 0, n_ - 1), "Decomp1D::proc index out of range");
  if (kind_ == Kind::Replicated) return 0;
  return emod(floordiv(i, b_), procs_);
}

i64 Decomp1D::local(i64 i) const {
  require(in_range(i, 0, n_ - 1), "Decomp1D::local index out of range");
  if (kind_ == Kind::Replicated) return i;
  return floordiv(i, b_ * procs_) * b_ + emod(i, b_);
}

i64 Decomp1D::global(i64 p, i64 l) const {
  require(in_range(p, 0, procs_ - 1), "Decomp1D::global bad processor");
  if (kind_ == Kind::Replicated) return l;
  i64 cycle = floordiv(l, b_);
  i64 offset = emod(l, b_);
  i64 g = cycle * b_ * procs_ + p * b_ + offset;
  require(in_range(g, 0, n_ - 1), "Decomp1D::global local slot unused");
  return g;
}

std::vector<i64> Decomp1D::owned_indices(i64 p) const {
  std::vector<i64> out;
  for (i64 i = 0; i < n_; ++i) {
    if (is_replicated() || proc(i) == p) out.push_back(i);
  }
  return out;
}

std::string Decomp1D::str() const {
  switch (kind_) {
    case Kind::Block:
      return cat("block(b=", b_, ")");
    case Kind::Scatter:
      return "scatter";
    case Kind::BlockScatter:
      return cat("blockscatter(b=", b_, ")");
    case Kind::Replicated:
      return "replicated";
  }
  return "?";
}

}  // namespace vcal::decomp
