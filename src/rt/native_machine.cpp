#include "rt/native_machine.hpp"

#include <mutex>

#include "emit/c_openmp.hpp"
#include "rt/seq_executor.hpp"
#include "support/error.hpp"

namespace vcal::rt {

namespace {

/// Signature of the generated driver (see OpenMPOptions::driver).
using NativeRunFn = void (*)(const double* const* inputs,
                             double* const* outputs, NativeResult* res);

/// The generated arrays are static module state and content addressing
/// means two machines (even in different sessions) can hold the same
/// dlopen handle: entry calls are serialized process-wide. A native
/// run is a whole program, so this is per-run contention, not
/// per-step.
std::mutex& entry_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

NativeMachine::NativeMachine(spmd::Program program, EngineOptions engine,
                             std::shared_ptr<EngineContext> ctx)
    : program_(std::move(program)),
      engine_(std::move(engine)),
      ctx_(ctx ? std::move(ctx) : std::make_shared<EngineContext>()) {
  emit::OpenMPOptions opts;
  opts.driver = true;
  source_ = emit::emit_openmp_c(program_, opts);
  for (const auto& [name, desc] : program_.arrays)
    stores_[name].assign(static_cast<std::size_t>(desc.total()), 0.0);
}

void NativeMachine::load(const std::string& name,
                         const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  if (it == program_.arrays.end())
    throw SemanticError("load of undeclared array " + name);
  if (static_cast<i64>(dense.size()) != it->second.total())
    throw SemanticError("load size mismatch for array " + name);
  stores_[name] = dense;
}

void NativeMachine::run() {
  if (ran_) throw SemanticError("NativeMachine::run called twice");
  ran_ = true;

  spmd::NativeToolchain& tc = ctx_->jit().toolchain();
  auto fallback = [&](const std::string& why) {
    native_ = false;
    if (error_.empty()) error_ = why;
    SeqExecutor seq(program_, /*reference=*/false, ctx_);
    for (const auto& [name, data] : stores_) seq.load(name, data);
    seq.run();
    for (auto& [name, data] : stores_) data = seq.result(name);
  };

  if (!tc.available()) return fallback("no C compiler detected");
  spmd::NativeModule mod =
      tc.load(source_, engine_.jit_cache_dir, {"-fopenmp"});
  from_cache_ = mod.from_cache;
  compile_ms_ = mod.compile_ms;
  if (!mod.ok) return fallback(mod.error);
  auto fn = reinterpret_cast<NativeRunFn>(tc.symbol(mod, "vcal_native_run"));
  if (fn == nullptr)
    return fallback("vcal_native_run not exported by " + mod.fingerprint);

  std::vector<const double*> inputs;
  std::vector<double*> outputs;
  inputs.reserve(stores_.size());
  outputs.reserve(stores_.size());
  // stores_ and Program::arrays share the map's name order — the same
  // order the driver's memcpys were emitted in.
  for (auto& [name, data] : stores_) {
    inputs.push_back(data.data());
    outputs.push_back(data.data());
  }
  {
    std::lock_guard<std::mutex> lk(entry_mutex());
    fn(inputs.data(), outputs.data(), &stats_);
  }
  native_ = true;
}

const std::vector<double>& NativeMachine::result(
    const std::string& name) const {
  auto it = stores_.find(name);
  if (it == stores_.end())
    throw SemanticError("result of undeclared array " + name);
  return it->second;
}

}  // namespace vcal::rt
