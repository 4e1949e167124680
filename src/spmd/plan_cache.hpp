// Memoization of ClausePlan::build across repeated clause executions.
//
// Iterative programs (relaxation sweeps, red-black passes) execute the
// same clause hundreds of times; planning a clause builds one
// OwnerComputePlan per constrained dimension, which is pure compile-time
// work the paper performs exactly once per data decomposition. The cache
// restores that property at run time: an entry is keyed by the clause's
// printed form *and* the exact layouts of the arrays the clause touches
// (its target and every array it reads). A redistribution only changes
// an array's current layout. Entries built for other layouts stay, so a
// clause that never touches the moved array keeps hitting, and an array
// that returns to an earlier layout finds that layout's plan again.
//
// Layouts are interned to small ids (exact ArrayDesc equality) once per
// layout: when a machine first uses an array and at each redistribute
// (PlanLookup). A lookup therefore hashes only the memoized clause key
// and compares a few ids.
//
// Each entry also carries what the machines derive from its plan: the
// compiled schedule (comm_schedule.hpp) and the clause's JIT state
// (jit.hpp). They are built for one layout and reused
// whenever that layout recurs, within a run and, through the serve
// layer's pooled caches, across runs.
//
// One cache serves one machine at a time, so the BuildOptions and the
// evolving ArrayTable passed to get() are those of its owner; they are
// not part of the key. Entries are never evicted or rebuilt: references
// returned by get() stay valid for the cache's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "spmd/clause_plan.hpp"

namespace vcal::spmd {

class JitState;

/// Opaque base for the schedule a machine records from a plan
/// (comm_schedule.hpp). It rides in the plan's cache entry.
struct CachedSchedule {
  virtual ~CachedSchedule() = default;
};

/// Small id of one interned array layout (see PlanCache::intern).
using LayoutId = std::int32_t;

class PlanCache {
 public:
  struct Entry {
    std::vector<LayoutId> layouts;  // target's, then each ref's
    ClausePlan plan;
    std::unique_ptr<CachedSchedule> sched;  // null until recorded
    std::shared_ptr<JitState> jit;          // null until first JIT poll
  };

  /// The id of `desc`'s exact layout, assigning the next id on first
  /// sight. Ids are stable for the cache's lifetime.
  LayoutId intern(const decomp::ArrayDesc& desc);

  /// The entry for `key` (clause.str()) at `layouts` (the interned
  /// layouts of the clause's target and refs, in that order), building
  /// its plan on a miss.
  Entry& get(const std::string& key, const std::vector<LayoutId>& layouts,
             const prog::Clause& clause, const ArrayTable& arrays,
             gen::BuildOptions opts = {});

  /// One-off lookup: computes the key and interns the layouts from
  /// `arrays`.
  const ClausePlan& get(const prog::Clause& clause, const ArrayTable& arrays,
                        gen::BuildOptions opts = {});

  /// Number of entries holding a schedule.
  i64 schedules() const noexcept;

  /// Number of distinct layouts interned so far.
  i64 layouts() const noexcept { return static_cast<i64>(descs_.size()); }

  i64 hits() const noexcept { return hits_; }
  i64 misses() const noexcept { return misses_; }
  i64 size() const noexcept { return size_; }

  /// Emit PlanHit/PlanMiss events on `lane` of `tracer` (the owning
  /// machine's control lane). nullptr detaches.
  void set_tracer(obs::Tracer* tracer, i64 lane) noexcept {
    tracer_ = tracer;
    lane_ = lane;
  }

 private:
  i64 hits_ = 0;
  i64 misses_ = 0;
  i64 size_ = 0;
  std::vector<decomp::ArrayDesc> descs_;  // index = LayoutId
  // Per clause key, one entry per layout combination seen (usually one
  // or two); unique_ptr keeps entry addresses stable.
  std::unordered_map<std::string, std::vector<std::unique_ptr<Entry>>>
      cache_;
  obs::Tracer* tracer_ = nullptr;
  i64 lane_ = 0;
};

/// One machine's lookups into a PlanCache: the current layout id of
/// every array it has used and, per program step, the memoized clause
/// key and the arrays whose layouts complete it. Redistribution calls
/// relayout().
class PlanLookup {
 public:
  explicit PlanLookup(PlanCache& cache) : cache_(&cache) {}

  /// `desc` becomes its array's current layout; returns its id.
  LayoutId relayout(const decomp::ArrayDesc& desc);

  /// The cache entry for `clause` at the current layouts; an array not
  /// seen before takes its layout from `arrays`. `clause` must outlive
  /// this lookup (steps are memoized by address).
  PlanCache::Entry& get(const prog::Clause& clause, const ArrayTable& arrays,
                        gen::BuildOptions opts);

 private:
  struct StepKey {
    std::string key;
    std::vector<const LayoutId*> ids;  // into current_
  };
  PlanCache* cache_;
  std::unordered_map<std::string, LayoutId> current_;
  std::unordered_map<const prog::Clause*, StepKey> steps_;
  std::vector<LayoutId> scratch_;
};

}  // namespace vcal::spmd
