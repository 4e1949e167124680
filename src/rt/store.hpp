// Array storage for the runtime substrates.
//
// DenseStore backs the sequential reference executor and the shared-memory
// machine: one row-major buffer per array. DistStore backs the simulated
// distributed-memory machine: one local buffer per (array, rank), sized by
// the decomposition's local capacity; replicated arrays get a full copy on
// every rank.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "decomp/array_desc.hpp"

namespace vcal::rt {

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
