#include "obs/metrics.hpp"

#include "gen/schedule.hpp"
#include "obs/trace.hpp"
#include "rt/cost_model.hpp"
#include "rt/dist_machine.hpp"
#include "rt/engine_options.hpp"
#include "rt/shared_machine.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"
#include "support/format.hpp"
#include "support/thread_pool.hpp"

namespace vcal::obs {

std::string MetricsRegistry::Entry::value_str() const {
  if (!is_int) return cat(dval);
  return commas ? with_commas(ival) : cat(ival);
}

MetricsRegistry::Entry& MetricsRegistry::upsert(const std::string& name) {
  for (Entry& e : entries_)
    if (e.name == name) return e;
  entries_.push_back(Entry{name, true, false, 0, 0.0});
  return entries_.back();
}

void MetricsRegistry::set(const std::string& name, i64 v, bool commas) {
  Entry& e = upsert(name);
  e.is_int = true;
  e.commas = commas;
  e.ival = v;
}

void MetricsRegistry::set_real(const std::string& name, double v) {
  Entry& e = upsert(name);
  e.is_int = false;
  e.dval = v;
}

void MetricsRegistry::add(const std::string& name, i64 delta, bool commas) {
  Entry& e = upsert(name);
  e.is_int = true;
  e.commas = e.commas || commas;
  e.ival += delta;
}

void MetricsRegistry::add_real(const std::string& name, double delta) {
  Entry& e = upsert(name);
  e.is_int = false;
  e.dval += delta;
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

std::string MetricsRegistry::line() const {
  std::string out;
  for (const Entry& e : entries_) {
    if (!out.empty()) out += ' ';
    out += e.name;
    out += '=';
    out += e.value_str();
  }
  return out;
}

std::string MetricsRegistry::dump() const {
  std::size_t width = 0;
  for (const Entry& e : entries_) width = std::max(width, e.name.size());
  std::string out;
  for (const Entry& e : entries_)
    out += cat(pad_right(e.name, static_cast<int>(width)), "  ",
               e.value_str(), "\n");
  return out;
}

std::string MetricsRegistry::json() const {
  std::string out = "{";
  for (const Entry& e : entries_) {
    if (out.size() > 1) out += ',';
    // Thousands separators are text-only sugar; JSON numbers are raw.
    out += cat('"', e.name, "\":", e.is_int ? cat(e.ival) : cat(e.dval));
  }
  return out + "}";
}

void collect(MetricsRegistry& reg, const rt::DistStats& s) {
  reg.set("messages", s.messages, /*commas=*/true);
  reg.set("local-reads", s.local_reads, true);
  reg.set("remote-reads", s.remote_reads, true);
  reg.set("iters", s.iterations, true);
  reg.set("tests", s.tests, true);
  reg.set("steps", s.steps);
  reg.set_real("sim-time", s.sim_time);
  if (s.bulk_messages > 0) reg.set("bulk-msgs", s.bulk_messages, true);
  if (s.redist_messages > 0) reg.set("redist-msgs", s.redist_messages, true);
  if (s.halo_messages > 0) {
    reg.set("halo-msgs", s.halo_messages, true);
    reg.set("halo-values", s.halo_values, true);
    reg.set("halo-reads", s.halo_reads, true);
  }
}

void collect(MetricsRegistry& reg, const rt::SharedStats& s) {
  reg.set("barriers", s.barriers);
  reg.set("elided", s.barriers_elided);
  reg.set("iters", s.iterations, /*commas=*/true);
  reg.set("tests", s.tests, true);
  reg.set_real("sim-time", s.sim_time);
}

void collect(MetricsRegistry& reg, const rt::PathCounters& c) {
  reg.set("fused", c.fused);
  reg.set("generic", c.generic);
  reg.set("interp", c.interp);
  reg.set("sched", c.sched);
  reg.set("jit", c.jit);
}

void collect(MetricsRegistry& reg, const spmd::JitStats& s) {
  reg.set("jit-builds", s.builds);
  reg.set("jit-cache-hits", s.cache_hits);
  reg.set("jit-hits", s.hits);
  reg.set("jit-fallbacks", s.fallbacks);
  reg.set_real("jit-compile-ms", s.compile_ms);
}

void collect(MetricsRegistry& reg, const rt::CommStats& c) {
  reg.set("sched-builds", c.sched_builds);
  reg.set("sched-hits", c.sched_hits);
  reg.set("sched-fallbacks", c.sched_fallbacks);
  reg.set("packed-values", c.packed_values, /*commas=*/true);
  reg.set("packed-bytes", c.packed_bytes, true);
  reg.set("unpacked-values", c.unpacked_values, true);
}

void collect(MetricsRegistry& reg, const gen::EnumStats& s) {
  reg.set("tests", s.tests);
  reg.set("loop-iters", s.loop_iters);
  reg.set("yielded", s.yielded);
  reg.set("pieces", s.pieces);
}

void collect(MetricsRegistry& reg, const spmd::PlanCache& c) {
  reg.set("plan-hits", c.hits());
  reg.set("plan-misses", c.misses());
  reg.set("plan-entries", c.size());
  reg.set("plan-layouts", c.layouts());
}

void collect(MetricsRegistry& reg, const support::ThreadPool& p) {
  reg.set("pool-size", p.size());
  reg.set("pool-joins", p.joins());
  reg.set("pool-join-wait-ns", p.join_wait_ns());
  reg.set("pool-parks", p.parks());
  reg.set("pool-caller-ranks", p.caller_ranks());
}

void collect(MetricsRegistry& reg, const Tracer& t) {
  reg.set("trace-lanes", t.lanes());
  reg.set("trace-events", t.total_recorded());
  reg.set("trace-dropped", t.total_dropped());
}

}  // namespace vcal::obs
