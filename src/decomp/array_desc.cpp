#include "decomp/array_desc.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::decomp {

ArrayDesc::ArrayDesc(std::string name, std::vector<i64> lo,
                     std::vector<i64> hi, std::optional<DecompND> decomp,
                     i64 procs)
    : name_(std::move(name)),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      decomp_(std::move(decomp)),
      replicated_(!decomp_.has_value()),
      procs_(procs) {
  require(!lo_.empty() && lo_.size() == hi_.size(),
          "ArrayDesc: bad bounds arity");
  for (std::size_t d = 0; d < lo_.size(); ++d)
    require(lo_[d] <= hi_[d], "ArrayDesc: empty dimension");
  if (decomp_) {
    require(decomp_->ndims() == ndims(), "ArrayDesc: decomp arity mismatch");
    for (int d = 0; d < ndims(); ++d)
      require(decomp_->dim(d).n() == size(d),
              "ArrayDesc: decomp size mismatch in dimension " +
                  std::to_string(d));
    require(procs_ == decomp_->procs(), "ArrayDesc: proc count mismatch");
  }
}

ArrayDesc ArrayDesc::distributed(std::string name, std::vector<i64> lo,
                                 std::vector<i64> hi, DecompND decomp) {
  i64 procs = decomp.procs();
  return ArrayDesc(std::move(name), std::move(lo), std::move(hi),
                   std::move(decomp), procs);
}

ArrayDesc ArrayDesc::replicated(std::string name, std::vector<i64> lo,
                                std::vector<i64> hi, i64 procs) {
  require(procs >= 1, "ArrayDesc::replicated needs procs >= 1");
  return ArrayDesc(std::move(name), std::move(lo), std::move(hi),
                   std::nullopt, procs);
}

ArrayDesc ArrayDesc::with_halo(i64 width) const {
  if (width < 0)
    throw SemanticError("halo width must be non-negative for " + name_);
  if (width > 0) {
    if (replicated_ || ndims() != 1 ||
        decomp_->dim(0).kind() != Decomp1D::Kind::Block)
      throw SemanticError(
          "overlap is only supported for 1-D block-decomposed arrays (" +
          name_ + ")");
  }
  ArrayDesc out = *this;
  out.halo_ = width;
  return out;
}

std::pair<i64, i64> ArrayDesc::halo_range(i64 p, int side) const {
  require(side == -1 || side == 1, "halo_range: side must be +-1");
  require(in_range(p, 0, procs_ - 1), "halo_range: bad rank");
  if (halo_ == 0 || replicated_) return {0, -1};
  const Decomp1D& d = decomp_->dim(0);
  i64 block_lo = d.block_size() * p;
  i64 block_hi = std::min(block_lo + d.block_size() - 1, d.n() - 1);
  if (block_lo > d.n() - 1) return {0, -1};  // idle rank, no halo
  i64 lo, hi;
  if (side < 0) {
    lo = std::max<i64>(0, block_lo - halo_);
    hi = block_lo - 1;
  } else {
    lo = block_hi + 1;
    hi = std::min(d.n() - 1, block_hi + halo_);
  }
  if (lo > hi) return {0, -1};
  return {lo + lo_[0], hi + lo_[0]};
}

bool ArrayDesc::in_halo(i64 p, const std::vector<i64>& idx) const {
  if (halo_ == 0 || replicated_ || idx.size() != 1) return false;
  auto left = halo_range(p, -1);
  if (left.first <= idx[0] && idx[0] <= left.second) return true;
  auto right = halo_range(p, 1);
  return right.first <= idx[0] && idx[0] <= right.second;
}

i64 ArrayDesc::halo_capacity(i64 p) const {
  auto [llo, lhi] = halo_range(p, -1);
  auto [rlo, rhi] = halo_range(p, 1);
  return (lhi - llo + 1) + (rhi - rlo + 1);
}

i64 ArrayDesc::halo_slot(i64 p, i64 g) const {
  auto [llo, lhi] = halo_range(p, -1);
  if (llo <= g && g <= lhi) return g - llo;
  auto [rlo, rhi] = halo_range(p, 1);
  if (rlo <= g && g <= rhi) return (lhi - llo + 1) + (g - rlo);
  return -1;
}

i64 ArrayDesc::lo(int d) const {
  require(d >= 0 && d < ndims(), "ArrayDesc::lo bad dimension");
  return lo_[static_cast<std::size_t>(d)];
}

i64 ArrayDesc::hi(int d) const {
  require(d >= 0 && d < ndims(), "ArrayDesc::hi bad dimension");
  return hi_[static_cast<std::size_t>(d)];
}

i64 ArrayDesc::size(int d) const { return hi(d) - lo(d) + 1; }

i64 ArrayDesc::total() const {
  i64 t = 1;
  for (int d = 0; d < ndims(); ++d) t = mul_checked(t, size(d));
  return t;
}

const DecompND& ArrayDesc::decomp() const {
  require(decomp_.has_value(), "ArrayDesc::decomp on replicated array");
  return *decomp_;
}

bool ArrayDesc::in_bounds(const std::vector<i64>& idx) const {
  if (idx.size() != lo_.size()) return false;
  for (std::size_t d = 0; d < lo_.size(); ++d)
    if (!in_range(idx[d], lo_[d], hi_[d])) return false;
  return true;
}

std::vector<i64> ArrayDesc::normalize(const std::vector<i64>& idx) const {
  require(idx.size() == lo_.size(), "ArrayDesc: index arity mismatch");
  std::vector<i64> out(idx.size());
  for (std::size_t d = 0; d < idx.size(); ++d) out[d] = idx[d] - lo_[d];
  return out;
}

i64 ArrayDesc::owner(const std::vector<i64>& idx) const {
  return replicated_ ? 0 : decomp_->locate_at(idx, lo_).owner;
}

i64 ArrayDesc::local_linear(const std::vector<i64>& idx) const {
  return locate(idx).local;
}

Location ArrayDesc::locate(const std::vector<i64>& idx) const {
  if (replicated_) return {0, dense_linear(idx)};
  return decomp_->locate_at(idx, lo_);
}

i64 ArrayDesc::local_capacity(i64 p) const {
  require(in_range(p, 0, procs_ - 1), "ArrayDesc::local_capacity bad rank");
  if (replicated_) return total();
  return decomp_->local_capacity(p);
}

std::vector<i64> ArrayDesc::global_from_local(i64 rank, i64 linear) const {
  std::vector<i64> idx;
  if (replicated_) {
    idx.assign(lo_.size(), 0);
    for (std::size_t d = lo_.size(); d-- > 0;) {
      i64 s = hi_[d] - lo_[d] + 1;
      idx[d] = linear % s;
      linear /= s;
    }
    require(linear == 0, "ArrayDesc: dense linear out of range");
  } else {
    idx = decomp_->global_from_local(rank, linear);
  }
  for (std::size_t d = 0; d < idx.size(); ++d) idx[d] += lo_[d];
  return idx;
}

i64 ArrayDesc::dense_linear(const std::vector<i64>& idx) const {
  require(idx.size() == lo_.size(), "ArrayDesc: index arity mismatch");
  i64 lin = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    i64 n = idx[d] - lo_[d];
    if (!in_range(n, 0, hi_[d] - lo_[d]))
      throw InternalError("ArrayDesc: index out of bounds for " + name_);
    lin = lin * (hi_[d] - lo_[d] + 1) + n;
  }
  return lin;
}

std::string ArrayDesc::str() const {
  std::vector<std::string> bounds;
  for (int d = 0; d < ndims(); ++d)
    bounds.push_back(cat(lo(d), ":", hi(d)));
  std::string out = name_ + "[" + join(bounds, ", ") + "] ";
  if (replicated_)
    out += cat("replicated on ", procs_);
  else
    out += decomp_->str();
  if (halo_ > 0) out += cat(" halo=", halo_);
  return out;
}

}  // namespace vcal::decomp
