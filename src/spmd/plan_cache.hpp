// Memoization of ClausePlan::build across repeated clause executions.
//
// Iterative programs (relaxation sweeps, red-black passes) execute the
// same clause hundreds of times; planning a clause builds one
// OwnerComputePlan per constrained dimension, which is pure compile-time
// work the paper performs exactly once. The cache restores that property
// at run time: plans are keyed by the clause's printed form and stamped
// with a *decomposition epoch*. Executing a redistribution bumps the
// epoch, so every stale plan (whose owner arithmetic baked in the old
// layout) misses and is rebuilt against the new descriptors — the
// invalidation the redistribution tests guard.
//
// One cache belongs to one machine instance, so the BuildOptions and the
// evolving ArrayTable passed to get() are those of its owner; they are
// not part of the key.
//
// References returned by get() stay valid until the entry is rebuilt on
// an epoch mismatch (std::unordered_map never invalidates references on
// insert); callers must not hold them across a bump_epoch().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "obs/trace.hpp"
#include "spmd/clause_plan.hpp"

namespace vcal::spmd {

/// Opaque base for artifacts derived from a plan at one decomposition
/// epoch — compiled communication schedules (comm_schedule.hpp). They
/// ride in the plan's cache entry, so the epoch-mismatch rebuild that
/// invalidates a stale plan destroys its schedule with it: schedule
/// invalidation on redistribute costs nothing extra.
struct CachedSchedule {
  virtual ~CachedSchedule() = default;
};

class PlanCache {
 public:
  /// Returns the cached plan for `clause` at the current epoch, building
  /// and storing it on a miss.
  const ClausePlan& get(const prog::Clause& clause, const ArrayTable& arrays,
                        gen::BuildOptions opts = {});

  /// As above with the key (clause.str()) precomputed by the caller —
  /// the machines memoize keys per program step so the steady-state
  /// lookup allocates nothing.
  const ClausePlan& get(const std::string& key, const prog::Clause& clause,
                        const ArrayTable& arrays, gen::BuildOptions opts = {});

  /// The schedule attached to `key`'s entry at the current epoch, or
  /// nullptr (no entry, no schedule, or a stale epoch).
  CachedSchedule* find_schedule(const std::string& key) noexcept;

  /// Attaches a schedule to `key`'s current-epoch entry (dropped if the
  /// entry is missing or stale — the builder raced a redistribute).
  void attach_schedule(const std::string& key,
                       std::unique_ptr<CachedSchedule> sched);

  /// Number of entries currently holding a schedule.
  i64 schedules() const noexcept;

  /// Invalidates every cached plan (a decomposition changed).
  void bump_epoch() noexcept { ++epoch_; }

  /// Starts a new run of the cache's program at epoch 0 (a lease does
  /// this), so an epoch counts the redistributions the current run has
  /// executed. Epoch e then names the same layout in every run of the
  /// program: entries stamped e stay valid, all others miss.
  void restart_epochs() noexcept { epoch_ = 0; }

  std::uint64_t epoch() const noexcept { return epoch_; }
  i64 hits() const noexcept { return hits_; }
  i64 misses() const noexcept { return misses_; }
  i64 size() const noexcept { return static_cast<i64>(cache_.size()); }

  /// Emit PlanHit/PlanMiss events on `lane` of `tracer` (the owning
  /// machine's control lane). nullptr detaches.
  void set_tracer(obs::Tracer* tracer, i64 lane) noexcept {
    tracer_ = tracer;
    lane_ = lane;
  }

 private:
  struct Entry {
    std::uint64_t epoch;
    ClausePlan plan;
    std::unique_ptr<CachedSchedule> sched;  // may be null
  };

  std::uint64_t epoch_ = 0;
  i64 hits_ = 0;
  i64 misses_ = 0;
  std::unordered_map<std::string, Entry> cache_;
  obs::Tracer* tracer_ = nullptr;
  i64 lane_ = 0;
};

}  // namespace vcal::spmd
