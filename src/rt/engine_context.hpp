// Per-tenant ownership of everything the engine used to keep in
// process-global or per-machine-by-accident state.
//
// The one-shot CLI could afford a process-wide JitEngine and a plan
// cache buried inside each machine: one user, one program, one
// lifetime. The serve subsystem cannot — concurrent sessions must not
// see each other's cached plans, traces, metrics, or jitted modules
// (ISSUE 9's isolation requirement), yet requests *within* a session
// should reuse each other's warm artifacts. An EngineContext is that
// unit of isolation: one per server session, or one private context
// per machine when the caller passes none (the CLI path, unchanged
// behavior).
//
// It owns:
//   - a JitEngine (compile worker + dlopen module registry), replacing
//     the former JitEngine::instance() singleton;
//   - every Tracer handed to machines built against this context, kept
//     alive past the machines so served traces can be inspected after
//     a request completes;
//   - a pool of PlanCaches leased to machines by scope (the compile
//     fingerprint) and machine kind: two concurrent executions of the
//     same program get two caches (PlanCache is single-machine by
//     contract), but a release returns the warm cache to the pool so
//     the session's next request for that program starts with every
//     plan, schedule and JIT state built;
//   - a MetricsRegistry accumulating whatever the owner records across
//     runs (the serve layer folds in per-request machine stats).
//
// Thread safety: acquire/release/make_tracer/metrics are mutex-guarded
// (executor threads of one session race on them); the JitEngine locks
// internally.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/engine_options.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"

namespace vcal::rt {

/// The machine a leased plan cache serves (EngineContext::acquire_plans).
enum class PlanKind { Dist, Shared };

class EngineContext {
 public:
  EngineContext() = default;
  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// This context's compile service. Machines wire it into JitConfig;
  /// its module registry and test hooks are invisible to other
  /// contexts.
  spmd::JitEngine& jit() noexcept { return jit_; }

  /// The JIT preamble both parallel machines run before a clause
  /// executes: creates the JitState riding in the clause's plan-cache
  /// entry on first use, polls it with the engine's knobs and this
  /// context's compile service, and records JitBuild / JitSwap on the
  /// control lane of `tr` (when tracing) at `step_id`. Returns the
  /// jitted entry points when ready, nullptr while the bytecode kernel
  /// keeps running.
  const spmd::JitFns* poll_jit(spmd::PlanCache::Entry& entry,
                               const prog::Clause& clause,
                               const EngineOptions& engine,
                               spmd::JitStats& stats, obs::Tracer* tr,
                               i64 step_id);

  /// Allocates a tracer owned by this context (machines hold it as a
  /// non-owning pointer). Kept alive until the context dies so traces
  /// outlive the machine that recorded them.
  obs::Tracer* make_tracer(i64 ranks, i64 capacity);

  /// Total events recorded / lanes allocated across every tracer this
  /// context has produced — the isolation tests' bleed detectors.
  i64 trace_events() const;
  i64 trace_lanes() const;

  /// Leases a PlanCache to one machine of kind `kind`. A non-empty
  /// scope names the program family (the serve layer passes the
  /// compile-cache fingerprint): release() parks the cache for warm
  /// reuse by the next machine of the same kind with the same scope,
  /// and concurrent leases of one (scope, kind) get distinct caches (a
  /// PlanCache serves one machine at a time). The kind keeps the pools
  /// apart because the schedules differ: dist's address local rows and
  /// packed buffers, shared's the dense image. Entries are keyed by
  /// layout, so a warm cache serves each run the plans, schedules and
  /// JIT state of the layouts it actually reaches. An empty scope is a
  /// private cache destroyed on release.
  spmd::PlanCache* acquire_plans(const std::string& scope, PlanKind kind);
  void release_plans(spmd::PlanCache* cache) noexcept;

  /// Session-lifetime metrics. The owner records; machines never write
  /// here on their own (per-run stats stay on the machine accessors).
  void metric_add(const std::string& name, i64 delta);
  void metric_add_real(const std::string& name, double delta);
  void metric_set(const std::string& name, i64 v);
  i64 metric(const std::string& name) const;
  obs::MetricsRegistry metrics_snapshot() const;

 private:
  spmd::JitEngine jit_;

  mutable std::mutex m_;
  std::vector<std::unique_ptr<obs::Tracer>> tracers_;

  using PoolKey = std::pair<std::string, PlanKind>;  // (scope, kind)
  struct Lease {
    std::unique_ptr<spmd::PlanCache> cache;
    PoolKey key;
  };
  std::unordered_map<spmd::PlanCache*, Lease> live_plans_;
  std::map<PoolKey, std::vector<std::unique_ptr<spmd::PlanCache>>>
      plan_pool_;

  obs::MetricsRegistry metrics_;
};

/// Movable RAII handle on a leased PlanCache. The destructor detaches
/// any tracer still wired into the cache and returns the lease to the
/// context, so machines that hold one stay implicitly movable (the
/// oracle returns machines by value) without hand-written destructors.
class PlanLease {
 public:
  PlanLease() = default;
  PlanLease(std::shared_ptr<EngineContext> ctx, const std::string& scope,
            PlanKind kind)
      : ctx_(std::move(ctx)), cache_(ctx_->acquire_plans(scope, kind)) {}
  ~PlanLease() { reset(); }
  PlanLease(PlanLease&& o) noexcept
      : ctx_(std::move(o.ctx_)), cache_(o.cache_) {
    o.cache_ = nullptr;
  }
  PlanLease& operator=(PlanLease&& o) noexcept {
    if (this != &o) {
      reset();
      ctx_ = std::move(o.ctx_);
      cache_ = o.cache_;
      o.cache_ = nullptr;
    }
    return *this;
  }
  PlanLease(const PlanLease&) = delete;
  PlanLease& operator=(const PlanLease&) = delete;

  spmd::PlanCache* operator->() const noexcept { return cache_; }
  spmd::PlanCache& operator*() const noexcept { return *cache_; }
  spmd::PlanCache* get() const noexcept { return cache_; }

 private:
  void reset() noexcept {
    if (cache_ == nullptr) return;
    cache_->set_tracer(nullptr, 0);
    ctx_->release_plans(cache_);
    cache_ = nullptr;
  }
  std::shared_ptr<EngineContext> ctx_;
  spmd::PlanCache* cache_ = nullptr;
};

}  // namespace vcal::rt
