#include "rt/store.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace vcal::rt {

using decomp::ArrayDesc;

void DenseStore::declare(const ArrayDesc& desc) {
  buffers_[desc.name()].assign(static_cast<std::size_t>(desc.total()), 0.0);
}

void DenseStore::load(const ArrayDesc& desc,
                      const std::vector<double>& dense) {
  require(static_cast<i64>(dense.size()) == desc.total(),
          "DenseStore::load size mismatch for " + desc.name());
  buffers_[desc.name()] = dense;
}

double DenseStore::read(const ArrayDesc& desc,
                        const std::vector<i64>& idx) const {
  if (!desc.in_bounds(idx))
    throw RuntimeFault("read out of bounds on " + desc.name());
  const auto& buf = dense(desc.name());
  return buf[static_cast<std::size_t>(desc.dense_linear(idx))];
}

void DenseStore::write(const ArrayDesc& desc, const std::vector<i64>& idx,
                       double value) {
  if (!desc.in_bounds(idx))
    throw RuntimeFault("write out of bounds on " + desc.name());
  auto it = buffers_.find(desc.name());
  require(it != buffers_.end(), "DenseStore: undeclared " + desc.name());
  it->second[static_cast<std::size_t>(desc.dense_linear(idx))] = value;
}

const std::vector<double>& DenseStore::dense(const std::string& name) const {
  auto it = buffers_.find(name);
  // No message is built on the hit path: replay steps look rows up here.
  if (it == buffers_.end())
    throw InternalError("DenseStore: undeclared " + name);
  return it->second;
}

std::vector<double> DenseStore::snapshot(const std::string& name) const {
  return dense(name);
}

bool DenseStore::has(const std::string& name) const {
  return buffers_.find(name) != buffers_.end();
}

std::vector<double>& DenseStore::buffer(const std::string& name) {
  auto it = buffers_.find(name);
  if (it == buffers_.end())
    throw InternalError("DenseStore: undeclared " + name);
  return it->second;
}

DistStore::DistStore(i64 procs) : procs_(procs) {
  require(procs >= 1, "DistStore: needs at least one processor");
}

void DistStore::declare(const ArrayDesc& desc) {
  require(desc.procs() == procs_,
          "DistStore: processor count mismatch for " + desc.name());
  auto& bufs = buffers_[desc.name()];
  bufs.assign(static_cast<std::size_t>(procs_), {});
  for (i64 p = 0; p < procs_; ++p)
    bufs[static_cast<std::size_t>(p)].assign(
        static_cast<std::size_t>(desc.local_capacity(p)), 0.0);
}

void DistStore::load(const ArrayDesc& desc,
                     const std::vector<double>& dense) {
  require(static_cast<i64>(dense.size()) == desc.total(),
          "DistStore::load size mismatch for " + desc.name());
  // The buffers are normally already declared at this shape; every local
  // slot is overwritten below, so there is nothing to zero.
  auto it = buffers_.find(desc.name());
  bool shaped = it != buffers_.end();
  for (i64 p = 0; shaped && p < procs_; ++p)
    shaped = static_cast<i64>(it->second[static_cast<std::size_t>(p)]
                                  .size()) == desc.local_capacity(p);
  if (!shaped) {
    declare(desc);
    it = buffers_.find(desc.name());
  }
  for (i64 p = 0; p < procs_; ++p) {
    std::vector<double>& buf = it->second[static_cast<std::size_t>(p)];
    if (desc.is_replicated()) {
      std::copy(dense.begin(), dense.end(), buf.begin());
      continue;
    }
    for_each_local_run(desc, p, [&](i64 local, i64 at, i64 len) {
      std::copy_n(dense.begin() + at, len, buf.begin() + local);
    });
  }
}

std::vector<double> DistStore::gather(const ArrayDesc& desc) const {
  auto it = buffers_.find(desc.name());
  require(it != buffers_.end(), "DistStore: undeclared " + desc.name());
  if (desc.is_replicated()) return it->second.front();
  std::vector<double> dense(static_cast<std::size_t>(desc.total()), 0.0);
  for (i64 p = 0; p < procs_; ++p) {
    const std::vector<double>& buf = it->second[static_cast<std::size_t>(p)];
    for_each_local_run(desc, p, [&](i64 local, i64 at, i64 len) {
      std::copy_n(buf.begin() + local, len, dense.begin() + at);
    });
  }
  return dense;
}

const std::vector<double>& DistStore::local(const std::string& name,
                                            i64 rank) const {
  auto it = buffers_.find(name);
  if (it == buffers_.end())
    throw InternalError("DistStore: undeclared " + name);
  require(in_range(rank, 0, procs_ - 1), "DistStore: bad rank");
  return it->second[static_cast<std::size_t>(rank)];
}

std::vector<double>& DistStore::local_row_mut(const std::string& name,
                                              i64 rank) {
  auto it = buffers_.find(name);
  if (it == buffers_.end())
    throw InternalError("DistStore: undeclared " + name);
  require(in_range(rank, 0, procs_ - 1), "DistStore: bad rank");
  return it->second[static_cast<std::size_t>(rank)];
}

double DistStore::read_local(const std::string& name, i64 rank,
                             i64 local) const {
  const auto& buf = this->local(name, rank);
  if (!in_range(local, 0, static_cast<i64>(buf.size()) - 1))
    throw RuntimeFault("local read out of bounds on " + name);
  return buf[static_cast<std::size_t>(local)];
}

void DistStore::write_local(const std::string& name, i64 rank, i64 local,
                            double value) {
  auto& buf = local_row_mut(name, rank);
  if (!in_range(local, 0, static_cast<i64>(buf.size()) - 1))
    throw RuntimeFault("local write out of bounds on " + name);
  buf[static_cast<std::size_t>(local)] = value;
}

void DistStore::copy_into(const std::string& name,
                          std::vector<std::vector<double>>& out) const {
  auto it = buffers_.find(name);
  if (it == buffers_.end())
    throw InternalError("DistStore: undeclared " + name);
  out.resize(it->second.size());
  for (std::size_t p = 0; p < out.size(); ++p)
    out[p].assign(it->second[p].begin(), it->second[p].end());
}

void DistStore::replace(const std::string& name,
                        std::vector<std::vector<double>> buffers) {
  require(static_cast<i64>(buffers.size()) == procs_,
          "DistStore::replace rank count mismatch");
  buffers_[name] = std::move(buffers);
}

}  // namespace vcal::rt
