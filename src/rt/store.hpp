// Array storage for the runtime substrates.
//
// DenseStore backs the sequential reference executor and the shared-memory
// machine: one row-major buffer per array. DistStore backs the simulated
// distributed-memory machine: one local buffer per (array, rank), sized by
// the decomposition's local capacity; replicated arrays get a full copy on
// every rank.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "decomp/array_desc.hpp"

namespace vcal::rt {

/// Calls run(local, g, len) for every maximal run of rank p's local
/// slots, in local-slot order (which is ascending dense order), whose
/// elements sit at consecutive indices of the innermost dimension: len
/// slots from `local`, the first holding the element whose 0-based
/// global index is g (one entry per dimension). Local coordinate l of a
/// dimension with block size b over P grid processors, on grid
/// coordinate c, holds global index (l / b) * b * P + c * b + l mod b,
/// so the innermost dimension splits into whole blocks (one run when
/// P = 1) and each outer coordinate maps once per row: no element pays
/// a Decomp1D::global, owner() or local_linear() evaluation.
template <typename F>
void for_each_local_block(const decomp::ArrayDesc& desc, i64 p, F&& run) {
  const decomp::DecompND& dn = desc.decomp();
  const auto nd = static_cast<std::size_t>(dn.ndims());
  const std::vector<i64> shape = dn.local_shape(p);
  const std::vector<i64> coords = dn.grid().coords(p);
  for (i64 s : shape)
    if (s == 0) return;  // idle rank
  auto global = [&](std::size_t d, i64 l) {
    const decomp::Decomp1D& dim = dn.dim(static_cast<int>(d));
    const i64 b = dim.block_size();
    return l / b * b * dim.procs() + coords[d] * b + l % b;
  };
  const i64 width = shape[nd - 1];
  const decomp::Decomp1D& inner = dn.dim(static_cast<int>(nd - 1));
  const i64 block = inner.procs() == 1 ? width : inner.block_size();
  // Odometer over the outer local coordinates, one local row at a time.
  std::vector<i64> loc(nd, 0), g(nd, 0);
  for (i64 row = 0;; row += width) {
    for (std::size_t d = 0; d + 1 < nd; ++d) g[d] = global(d, loc[d]);
    for (i64 l = 0; l < width; l += block) {
      g[nd - 1] = global(nd - 1, l);
      run(row + l, std::as_const(g), std::min(block, width - l));
    }
    std::size_t d = nd - 1;
    while (d > 0 && ++loc[d - 1] == shape[d - 1]) loc[--d] = 0;
    if (d == 0) return;
  }
}

/// Calls copy(local, dense, len) for every run of for_each_local_block:
/// len local slots from `local` whose elements sit at consecutive
/// offsets of the dense row-major image, from `dense` on. DistStore and
/// the multi-process backend load and gather through it.
template <typename F>
void for_each_local_run(const decomp::ArrayDesc& desc, i64 p, F&& copy) {
  std::vector<i64> stride(static_cast<std::size_t>(desc.ndims()), 1);
  for (int d = desc.ndims() - 1; d > 0; --d)
    stride[static_cast<std::size_t>(d - 1)] =
        stride[static_cast<std::size_t>(d)] * desc.size(d);
  for_each_local_block(
      desc, p, [&](i64 local, const std::vector<i64>& g, i64 len) {
        i64 at = 0;
        for (std::size_t d = 0; d < g.size(); ++d) at += g[d] * stride[d];
        copy(local, at, len);
      });
}

class DenseStore {
 public:
  /// Allocates a zero-filled buffer for the array.
  void declare(const decomp::ArrayDesc& desc);

  /// Replaces the buffer contents with `dense` (row-major, full size).
  void load(const decomp::ArrayDesc& desc, const std::vector<double>& dense);

  double read(const decomp::ArrayDesc& desc,
              const std::vector<i64>& idx) const;
  void write(const decomp::ArrayDesc& desc, const std::vector<i64>& idx,
             double value);

  const std::vector<double>& dense(const std::string& name) const;
  std::vector<double> snapshot(const std::string& name) const;
  bool has(const std::string& name) const;

  /// Raw buffer access for the shared-memory machine's worker threads
  /// (ownership partitioning guarantees disjoint writes).
  std::vector<double>& buffer(const std::string& name);

 private:
  std::map<std::string, std::vector<double>> buffers_;
};

class DistStore {
 public:
  explicit DistStore(i64 procs);

  i64 procs() const noexcept { return procs_; }

  /// Allocates zero-filled local buffers on every rank.
  void declare(const decomp::ArrayDesc& desc);

  /// Scatters a dense row-major image across the local buffers
  /// (replicated arrays: every rank receives the full image). Copies
  /// run by run in each rank's local-slot order, into the buffers
  /// declare() already sized.
  void load(const decomp::ArrayDesc& desc, const std::vector<double>& dense);

  /// Reassembles the dense image from the local buffers, run by run as
  /// load() scatters it (replicated arrays: rank 0's copy).
  std::vector<double> gather(const decomp::ArrayDesc& desc) const;

  double read_local(const std::string& name, i64 rank, i64 local) const;
  void write_local(const std::string& name, i64 rank, i64 local,
                   double value);

  /// Direct access to one rank's local buffer, for executor inner loops
  /// that hoist the name lookup out of per-element code. Writers rely on
  /// ownership partitioning for disjointness, exactly as with
  /// write_local.
  const std::vector<double>& local_row(const std::string& name,
                                       i64 rank) const {
    return local(name, rank);
  }
  std::vector<double>& local_row_mut(const std::string& name, i64 rank);

  /// Copies all local buffers of the array into `out`, reusing its
  /// storage (clause copy-in snapshots).
  void copy_into(const std::string& name,
                 std::vector<std::vector<double>>& out) const;

  /// Swaps in new local buffers (redistribution).
  void replace(const std::string& name,
               std::vector<std::vector<double>> buffers);

 private:
  const std::vector<double>& local(const std::string& name, i64 rank) const;

  i64 procs_;
  std::map<std::string, std::vector<std::vector<double>>> buffers_;
};

}  // namespace vcal::rt
