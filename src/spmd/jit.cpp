#include "spmd/jit.hpp"

#include <cstdio>
#include <sstream>

#include "emit/c_expr.hpp"
#include "obs/metrics.hpp"
#include "support/toolchain.hpp"

namespace vcal::spmd {

std::string JitStats::str() const {
  obs::MetricsRegistry reg;
  obs::collect(reg, *this);
  return reg.line();
}

// ---- source emission -------------------------------------------------

namespace {

std::string cmp_to_c(prog::Guard::Cmp c) {
  switch (c) {
    case prog::Guard::Cmp::LT: return "<";
    case prog::Guard::Cmp::LE: return "<=";
    case prog::Guard::Cmp::GT: return ">";
    case prog::Guard::Cmp::GE: return ">=";
    case prog::Guard::Cmp::EQ: return "==";
    case prog::Guard::Cmp::NE: return "!=";
  }
  return "<";
}

/// "if (guard) slot = rhs;\n" with the given ref/loop-variable C
/// bindings. expr_to_c parenthesizes every operation in the bytecode's
/// left-then-right operand order, and C comparisons carry the same IEEE
/// NaN semantics as CompiledGuard::holds, so the store is bit-identical
/// to the interpreter.
std::string guarded_store(const prog::Clause& clause,
                          const std::vector<std::string>& refs,
                          const std::vector<std::string>& loops,
                          const std::string& slot,
                          const std::string& indent) {
  std::string rhs = emit::expr_to_c(clause.rhs, refs, loops);
  if (!clause.guard) return indent + slot + " = " + rhs + ";\n";
  std::string g = "(" + emit::expr_to_c(clause.guard->lhs, refs, loops) +
                  " " + cmp_to_c(clause.guard->cmp) + " " +
                  emit::expr_to_c(clause.guard->rhs, refs, loops) + ")";
  return indent + "if " + g + " " + slot + " = " + rhs + ";\n";
}

}  // namespace

std::string jit_source(const prog::Clause& clause) {
  const int R = static_cast<int>(clause.refs.size());
  const int L = static_cast<int>(clause.loops.size());
  const int I = L - 1;
  std::vector<std::string> refs(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) refs[static_cast<std::size_t>(r)] =
      "r" + std::to_string(r);
  // The functions below read no subscript (addressing arrives as
  // arguments), so the header names only what they compile — ref and
  // loop counts, guard and RHS — and clauses that differ only in their
  // subscripts share one content-addressed module.
  std::vector<std::string> lnames(static_cast<std::size_t>(L));
  for (int d = 0; d < L; ++d)
    lnames[static_cast<std::size_t>(d)] = "l" + std::to_string(d);
  std::ostringstream os;
  os << "// vcal jit kernel (generated, content-addressed - do not edit)\n"
     << "// " << R << " refs, " << L << " loops: "
     << guarded_store(clause, refs, lnames, "out", "") << "\n";
  auto loops_with_inner = [&](const std::string& inner_expr) {
    std::vector<std::string> lv(static_cast<std::size_t>(L));
    for (int d = 0; d < L; ++d)
      lv[static_cast<std::size_t>(d)] =
          d == I ? inner_expr : "outer[" + std::to_string(d) + "]";
    return lv;
  };

  // --- the fused strided loop -------------------------------------
  os << "void vcal_jit_fused(double* out, long long la0, long long "
        "la_stride,\n"
        "                    const double* const* rows, const long long* "
        "raddr0,\n"
        "                    const long long* rstride, const long long* "
        "outer,\n"
        "                    long long v0, long long vstride, long long n) "
        "{\n"
        "  long long k;\n";
  for (int r = 0; r < R; ++r)
    os << "  long long a" << r << " = raddr0[" << r << "];\n";
  os << "  (void)outer; (void)v0;\n";
  if (R == 0) os << "  (void)rows; (void)raddr0; (void)rstride;\n";
  // Unit-stride specialization: with every stride a literal 1 the host
  // compiler can vectorize the loop; the generic branch computes the
  // same values element by element.
  os << "  if (la_stride == 1 && vstride == 1";
  for (int r = 0; r < R; ++r) os << " && rstride[" << r << "] == 1";
  os << ") {\n"
        "    for (k = 0; k < n; ++k) {\n";
  for (int r = 0; r < R; ++r)
    os << "      double r" << r << " = rows[" << r << "][a" << r
       << " + k];\n";
  os << guarded_store(clause, refs, loops_with_inner("(v0 + k)"),
                      "out[la0 + k]", "      ");
  os << "    }\n"
        "  } else {\n"
        "    long long la = la0;\n"
        "    long long v = v0;\n"
        "    (void)v;\n"
        "    for (k = 0; k < n; ++k) {\n";
  for (int r = 0; r < R; ++r)
    os << "      double r" << r << " = rows[" << r << "][a" << r << "]; a"
       << r << " += rstride[" << r << "];\n";
  os << guarded_store(clause, refs, loops_with_inner("v"), "out[la]",
                      "      ");
  os << "      la += la_stride;\n"
        "      v += vstride;\n"
        "    }\n"
        "  }\n"
        "}\n\n";

  // --- one replay segment of a compiled schedule ------------------
  std::vector<std::string> rloops(static_cast<std::size_t>(L));
  for (int d = 0; d < L; ++d)
    rloops[static_cast<std::size_t>(d)] =
        "vals[e*" + std::to_string(L) + " + " + std::to_string(d) + "]";
  os << "void vcal_jit_replay(double* out, const double* const* bases,\n"
        "                     const long long* ids, const long long* "
        "offs,\n"
        "                     const long long* slots, const long long* "
        "vals,\n"
        "                     long long n) {\n"
        "  long long e;\n"
        "  (void)bases; (void)ids; (void)offs; (void)vals;\n"
        "  for (e = 0; e < n; ++e) {\n";
  for (int r = 0; r < R; ++r)
    os << "    double r" << r << " = bases[ids[e*" << R << " + " << r
       << "]][offs[e*" << R << " + " << r << "]];\n";
  os << guarded_store(clause, refs, rloops, "out[slots[e]]", "    ");
  os << "  }\n"
        "}\n";
  return os.str();
}

std::string jit_fingerprint(const std::string& source) {
  // The JIT compiles with no extra flags, so its content address is
  // the toolchain fingerprint over the bare source (tests use this to
  // locate <fp>.c/.so in the cache directory).
  return NativeToolchain::fingerprint(source);
}

// ---- arming / dispatch ----------------------------------------------

JitPoll JitState::poll(const prog::Clause& clause, const JitConfig& cfg,
                       JitStats& stats) {
  JitPoll r;
  bool submit_sync = false, submit_async = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (!cfg.enabled || cfg.engine == nullptr) return r;
    ++seen_;
    if (status_ == Status::Idle && seen_ >= cfg.threshold) {
      // Every clause step replays a schedule, and the module reads no
      // subscript, so every clause is eligible where a compiler is.
      if (!cfg.engine->available()) {
        // No toolchain on this host: never arm (a compile job could
        // only fail). One fallback records that the JIT was due but
        // cannot happen here. Probing only now keeps runs whose clauses
        // never reach the threshold from spawning the compiler probe.
        status_ = Status::Ineligible;
        ++stats.fallbacks;
      } else {
        source_ = jit_source(clause);
        status_ = Status::Pending;
        r.launched = true;
        (cfg.sync ? submit_sync : submit_async) = true;
      }
    }
  }
  if (submit_sync)
    cfg.engine->compile(shared_from_this(), cfg);
  else if (submit_async)
    cfg.engine->submit(shared_from_this(), cfg);
  {
    std::lock_guard<std::mutex> lk(m_);
    if (status_ == Status::Ready) {
      if (!harvested_) {
        harvested_ = true;
        r.swapped = true;
        r.cached = from_cache_;
        if (from_cache_)
          ++stats.cache_hits;
        else
          ++stats.builds;
        stats.compile_ms += compile_ms_;
      }
      ++stats.hits;
      r.fns = &fns_;
    } else if (status_ == Status::Failed) {
      ++stats.fallbacks;
    }
  }
  return r;
}

// ---- the compile service --------------------------------------------

std::string jit_system_compiler() { return support::system_c_compiler(); }

bool jit_toolchain_available() {
  return support::c_toolchain_available();
}

JitEngine::~JitEngine() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool JitEngine::available() { return toolchain_.available(); }

std::string JitEngine::cache_dir(const JitConfig& cfg) {
  return toolchain_.cache_dir(cfg.cache_dir);
}

void JitEngine::submit(std::shared_ptr<JitState> s, const JitConfig& cfg) {
  std::lock_guard<std::mutex> lk(m_);
  if (stop_) return;
  if (!worker_running_) {
    worker_running_ = true;
    worker_ = std::thread([this] { worker_loop(); });
  }
  queue_.emplace_back(std::move(s), cfg);
  cv_.notify_all();
}

void JitEngine::worker_loop() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    auto job = std::move(queue_.front());
    queue_.erase(queue_.begin());
    busy_ = true;
    lk.unlock();
    compile(job.first, job.second);
    lk.lock();
    busy_ = false;
    cv_.notify_all();
  }
}

void JitEngine::drain() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] { return queue_.empty() && !busy_; });
}

void JitEngine::test_set_compiler(const std::string& path) {
  toolchain_.test_set_compiler(path);
}

void JitEngine::test_corrupt_source(bool on) {
  toolchain_.test_corrupt_source(on);
}

void JitEngine::test_fail_dlopen(bool on) {
  toolchain_.test_fail_dlopen(on);
}

void JitEngine::compile(const std::shared_ptr<JitState>& s,
                        const JitConfig& cfg) {
  std::string src;
  {
    std::lock_guard<std::mutex> lk(s->m_);
    src = s->source_;
  }
  auto fail = [&] {
    std::lock_guard<std::mutex> lk(s->m_);
    s->status_ = JitState::Status::Failed;
  };
  NativeModule mod = toolchain_.load(src, cfg.cache_dir);
  if (!mod.ok) return fail();
  JitFns fns;
  fns.fused = reinterpret_cast<JitFusedFn>(
      toolchain_.symbol(mod, "vcal_jit_fused"));
  fns.replay = reinterpret_cast<JitReplayFn>(
      toolchain_.symbol(mod, "vcal_jit_replay"));
  if (!fns.fused || !fns.replay) return fail();
  std::lock_guard<std::mutex> lk(s->m_);
  s->fns_ = fns;
  s->from_cache_ = mod.from_cache;
  s->compile_ms_ = mod.compile_ms;
  s->status_ = JitState::Status::Ready;
}

}  // namespace vcal::spmd
