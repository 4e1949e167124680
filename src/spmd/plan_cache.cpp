#include "spmd/plan_cache.hpp"

#include <algorithm>

#include "spmd/kernel.hpp"

namespace vcal::spmd {

LayoutId PlanCache::intern(const decomp::ArrayDesc& desc) {
  auto it = std::find(descs_.begin(), descs_.end(), desc);
  if (it != descs_.end()) return static_cast<LayoutId>(it - descs_.begin());
  descs_.push_back(desc);
  return static_cast<LayoutId>(descs_.size() - 1);
}

PlanCache::Entry& PlanCache::get(const std::string& key,
                                 const std::vector<LayoutId>& layouts,
                                 const prog::Clause& clause,
                                 const ArrayTable& arrays,
                                 gen::BuildOptions opts) {
  std::vector<std::unique_ptr<Entry>>& bucket = cache_[key];
  for (const std::unique_ptr<Entry>& e : bucket)
    if (e->layouts == layouts) {
      ++hits_;
      VCAL_TRACE(tracer_, lane_, obs::EventKind::PlanHit, /*step=*/-1,
                 size());
      return *e;
    }
  ++misses_;
  bucket.push_back(std::make_unique<Entry>(
      Entry{layouts, ClausePlan::build(clause, arrays, opts), nullptr,
            nullptr}));
  ++size_;
  VCAL_TRACE(tracer_, lane_, obs::EventKind::PlanMiss, /*step=*/-1, size(),
             bucket.back()->plan.kernel().op_count());
  return *bucket.back();
}

const ClausePlan& PlanCache::get(const prog::Clause& clause,
                                 const ArrayTable& arrays,
                                 gen::BuildOptions opts) {
  return PlanLookup(*this).get(clause, arrays, opts).plan;
}

i64 PlanCache::schedules() const noexcept {
  i64 n = 0;
  for (const auto& [key, bucket] : cache_)
    for (const std::unique_ptr<Entry>& e : bucket)
      if (e->sched) ++n;
  return n;
}

LayoutId PlanLookup::relayout(const decomp::ArrayDesc& desc) {
  return current_[desc.name()] = cache_->intern(desc);
}

PlanCache::Entry& PlanLookup::get(const prog::Clause& clause,
                                  const ArrayTable& arrays,
                                  gen::BuildOptions opts) {
  auto [it, fresh] = steps_.try_emplace(&clause);
  StepKey& step = it->second;
  if (fresh) {
    // An array is interned on its first use; an unknown one keeps a null
    // slot (id -1) and ClausePlan::build reports it.
    auto slot = [&](const std::string& name) -> const LayoutId* {
      auto c = current_.find(name);
      if (c != current_.end()) return &c->second;
      auto a = arrays.find(name);
      if (a == arrays.end()) return nullptr;
      return &(current_[name] = cache_->intern(a->second));
    };
    step.key = clause.str();
    step.ids.push_back(slot(clause.lhs_array));
    for (const prog::ArrayRef& r : clause.refs)
      step.ids.push_back(slot(r.array));
  }
  scratch_.clear();
  for (const LayoutId* id : step.ids) scratch_.push_back(id ? *id : -1);
  return cache_->get(step.key, scratch_, clause, arrays, opts);
}

}  // namespace vcal::spmd
