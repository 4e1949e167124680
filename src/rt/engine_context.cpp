#include "rt/engine_context.hpp"

#include "support/error.hpp"

namespace vcal::rt {

const spmd::JitFns* EngineContext::poll_jit(
    spmd::PlanCache::Entry& entry, const prog::Clause& clause,
    const EngineOptions& engine, spmd::JitStats& stats, obs::Tracer* tr,
    i64 step_id) {
  if (!entry.jit) entry.jit = std::make_shared<spmd::JitState>();
  spmd::JitConfig cfg;
  cfg.enabled = true;
  cfg.threshold = engine.jit_threshold;
  cfg.sync = engine.jit_sync;
  cfg.cache_dir = engine.jit_cache_dir;
  cfg.engine = &jit_;
  spmd::JitPoll r = entry.jit->poll(clause, cfg, stats);
  const i64 ctl = tr ? tr->control_lane() : 0;
  if (r.launched)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitBuild, step_id, cfg.sync ? 1 : 0);
  if (r.swapped)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitSwap, step_id, r.cached ? 0 : 1);
  return r.fns;
}

obs::Tracer* EngineContext::make_tracer(i64 ranks, i64 capacity) {
  std::lock_guard<std::mutex> lk(m_);
  tracers_.push_back(std::make_unique<obs::Tracer>(ranks, capacity));
  return tracers_.back().get();
}

i64 EngineContext::trace_events() const {
  std::lock_guard<std::mutex> lk(m_);
  i64 n = 0;
  for (const auto& t : tracers_) n += t->total_recorded();
  return n;
}

i64 EngineContext::trace_lanes() const {
  std::lock_guard<std::mutex> lk(m_);
  i64 n = 0;
  for (const auto& t : tracers_) n += t->lanes();
  return n;
}

spmd::PlanCache* EngineContext::acquire_plans(const std::string& scope,
                                              PlanKind kind) {
  std::lock_guard<std::mutex> lk(m_);
  std::unique_ptr<spmd::PlanCache> cache;
  PoolKey key{scope, kind};
  if (!scope.empty()) {
    auto it = plan_pool_.find(key);
    if (it != plan_pool_.end() && !it->second.empty()) {
      cache = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  if (!cache) cache = std::make_unique<spmd::PlanCache>();
  spmd::PlanCache* raw = cache.get();
  live_plans_.emplace(raw, Lease{std::move(cache), std::move(key)});
  return raw;
}

void EngineContext::release_plans(spmd::PlanCache* cache) noexcept {
  if (cache == nullptr) return;
  std::lock_guard<std::mutex> lk(m_);
  auto it = live_plans_.find(cache);
  if (it == live_plans_.end()) return;  // not ours; never delete blindly
  Lease lease = std::move(it->second);
  live_plans_.erase(it);
  // The machine that held this lease may have left its tracer attached;
  // that tracer dies with this context, but the pooled cache may serve
  // a machine with a different (or no) tracer next — detach it.
  lease.cache->set_tracer(nullptr, 0);
  if (!lease.key.first.empty())
    plan_pool_[lease.key].push_back(std::move(lease.cache));
}

void EngineContext::metric_add(const std::string& name, i64 delta) {
  std::lock_guard<std::mutex> lk(m_);
  metrics_.add(name, delta);
}

void EngineContext::metric_add_real(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lk(m_);
  metrics_.add_real(name, delta);
}

void EngineContext::metric_set(const std::string& name, i64 v) {
  std::lock_guard<std::mutex> lk(m_);
  metrics_.set(name, v);
}

i64 EngineContext::metric(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  const obs::MetricsRegistry::Entry* e = metrics_.find(name);
  return e == nullptr ? 0 : e->ival;
}

obs::MetricsRegistry EngineContext::metrics_snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  return metrics_;
}

}  // namespace vcal::rt
