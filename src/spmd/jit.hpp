// JIT native code generation for hot clause plans: compile the bytecode
// away.
//
// PR 3 lowered clause right-hand sides to postfix bytecode over fused
// strided loops; PR 5 compiled the communication pattern into replayable
// schedules. The remaining interpreter tax is the bytecode dispatch
// itself: every element still pays a switch per ExprOp plus value-stack
// traffic. The paper's premise is that a decomposition plus generator
// functions yields *compilable* SPMD node programs — so once a cached
// clause plan proves hot (its Nth clean execution; comm schedules, by
// contrast, build on the first clean execution at a layout), we emit
// the clause's inner loops as a self-contained C file — RHS and guard
// as straight-line C expressions via emit::c_expr, parenthesized in the
// bytecode's left-then-right operand order so doubles combine
// bit-identically — compile it with the system toolchain into a shared
// object, dlopen it, and swap the resulting function pointers into the
// dispatch.
//
// Two extern "C" entry points cover every fast path of both parallel
// machines, one per kind of schedule segment (spmd::RecvPlan):
//
//   vcal_jit_fused   — one strided run of a schedule replay. All
//                      addressing arrives as runtime arguments; a
//                      unit-stride specialization is emitted textually
//                      so -O2 can vectorize it.
//   vcal_jit_replay  — one stretch of element records: for each
//                      recorded element, gather operands by
//                      (base, offset) pairs, evaluate guard/RHS, store.
//
// The schedule already holds its runs as the inspector (or the shared
// machine's recording pass) noted them, so rt::replay_rank hands each
// segment straight to its entry point: the common interior of a stencil
// is one vectorizable fused call, only the irregular boundary elements
// go through the gather entry, and swapping a module in costs no pass
// over the schedule. Every clause is eligible, whatever its subscripts:
// each clause step replays a schedule and the module reads no
// subscript. The shared machine records each piece of a mod clause
// between its wraps (the paper's Section 3.3 split) as a run, so those
// pieces reach the fused entry too; the distributed machines' mod
// clauses are element records and go through the gather entry.
//
// Correctness contract: results are bit-identical to the bytecode
// kernel. Compilation runs on a background worker so no step ever
// blocks on the compiler; until the handle is ready — or if the
// toolchain is missing, the compile fails, or dlopen fails — the
// bytecode kernel keeps running. Shared objects are content-addressed
// by a fingerprint of the generated source (FNV-1a 64), so identical
// clauses across runs and processes reuse the cached .so. Handles are
// deliberately immortal (never dlclosed). JIT state rides in the plan
// cache entry of one clause at one layout; entries are never
// invalidated, so a redistribute only moves later executions to the
// entry (and the JIT state) of the new layout, and a return to an
// earlier layout finds its jitted functions again. A host without a C
// toolchain is detected when a state would first arm, never sooner,
// and counts one fallback per state.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "spmd/kernel.hpp"
#include "spmd/native_toolchain.hpp"

namespace vcal::spmd {

class JitEngine;

/// Reporting-only counters (never part of DistStats/SharedStats, like
/// PathCounters): JIT activity must not perturb the semantic stats the
/// conformance oracle compares.
struct JitStats {
  i64 builds = 0;      // compiles that produced a fresh shared object
  i64 cache_hits = 0;  // content-addressed .so / module registry reuse
  i64 hits = 0;        // clause executions dispatched through jitted code
  i64 fallbacks = 0;   // armed executions forced back to bytecode
  double compile_ms = 0.0;  // wall time spent in the toolchain

  JitStats& operator+=(const JitStats& o) {
    builds += o.builds;
    cache_hits += o.cache_hits;
    hits += o.hits;
    fallbacks += o.fallbacks;
    compile_ms += o.compile_ms;
    return *this;
  }
  std::string str() const;
};

/// Per-machine knobs, copied out of rt::EngineOptions by the machines
/// (spmd/ stays independent of rt/).
struct JitConfig {
  bool enabled = true;
  int threshold = 2;        // arm on the Nth clean execution
  bool sync = false;        // block on the compiler (oracle/tests)
  std::string cache_dir;    // empty: $TMPDIR/vcal-jit-cache-<uid>
  /// The engine that compiles for this machine. Machines point this at
  /// their EngineContext's engine; poll() stays on the bytecode path
  /// when it is null. Never serialized (a service pointer, not a knob).
  JitEngine* engine = nullptr;
};

/// Signatures of the entry points every jitted module exports. The
/// generated C declares the integer parameters as `long long`, which
/// shares i64's width and calling convention on every platform the
/// runtime targets.
using JitFusedFn = void (*)(double* out, i64 la0, i64 la_stride,
                            const double* const* rows, const i64* raddr0,
                            const i64* rstride, const i64* outer, i64 v0,
                            i64 vstride, i64 n);
using JitReplayFn = void (*)(double* out, const double* const* bases,
                             const i64* ids, const i64* offs,
                             const i64* slots, const i64* vals, i64 n);

struct JitFns {
  JitFusedFn fused = nullptr;
  JitReplayFn replay = nullptr;
};

/// The emitted C source for one clause. Pure function of the clause's
/// guard/RHS structure and arity — subscripts and decomposition-dependent
/// addressing are runtime arguments — so the fingerprint survives
/// redistribution and clauses that differ only in their subscripts share
/// one module.
std::string jit_source(const prog::Clause& clause);

/// Content address of a generated source: "vcal" + FNV-1a 64 hex.
std::string jit_fingerprint(const std::string& source);

/// What one poll observed (the machines translate these into trace
/// events on the control lane).
struct JitPoll {
  const JitFns* fns = nullptr;  // non-null: dispatch through jitted code
  bool launched = false;        // a compile was submitted this poll
  bool swapped = false;         // fns became available this poll
  bool cached = false;          // the swap reused a cached module/.so
};

/// Per-clause-plan JIT state, riding in the plan's cache entry (one per
/// layout): arming counter, compile status and the swapped-in function
/// pointers. Poll is called
/// once per clause execution from the machine's control thread; the
/// compile worker flips the status from Pending to Ready/Failed
/// concurrently.
class JitState : public std::enable_shared_from_this<JitState> {
 public:
  JitPoll poll(const prog::Clause& clause, const JitConfig& cfg,
               JitStats& stats);

 private:
  friend class JitEngine;
  enum class Status { Idle, Ineligible, Pending, Ready, Failed };

  mutable std::mutex m_;
  Status status_ = Status::Idle;
  int seen_ = 0;
  bool harvested_ = false;  // build/cache-hit counted into JitStats
  std::string source_;      // set when arming, consumed by the worker
  JitFns fns_;
  bool from_cache_ = false;
  double compile_ms_ = 0.0;
};

/// True when a C compiler answers `--version` (probed once per
/// process, cached). Forwards to support::c_toolchain_available — the
/// compiler is a system property, not engine state, so every JitEngine
/// without a test override shares this probe.
bool jit_toolchain_available();

/// The detected system compiler ("" when none). Same process-wide
/// cache as jit_toolchain_available().
std::string jit_system_compiler();

/// One compile service: the background compile worker plus an owned
/// NativeToolchain (the content-addressed .c/.so cache and dlopen
/// module registry, shared with the whole-program native backend —
/// see spmd/native_toolchain.hpp). Historically a process-wide
/// singleton; now owned by rt::EngineContext so concurrent server
/// sessions get isolated module registries and test hooks (toolchain
/// detection stays process-wide — see jit_system_compiler). Test hooks
/// inject every failure mode.
class JitEngine {
 public:
  JitEngine() = default;
  ~JitEngine();
  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  /// True when this engine can compile: the test-override compiler if
  /// one is set, else the process-wide detected toolchain.
  bool available();

  /// Queue an asynchronous compile of `s` (status must be Pending).
  void submit(std::shared_ptr<JitState> s, const JitConfig& cfg);

  /// Compile `s` synchronously on the calling thread.
  void compile(const std::shared_ptr<JitState>& s, const JitConfig& cfg);

  /// Block until the async queue is empty and the worker is idle.
  void drain();

  /// Resolved cache directory (created on demand); empty on failure.
  std::string cache_dir(const JitConfig& cfg);

  /// The compile/cache/dlopen surface this engine owns. The
  /// whole-program native backend (rt::NativeMachine) compiles through
  /// it so a serve session's jitted clauses and native programs share
  /// one module registry and one set of test hooks.
  NativeToolchain& toolchain() noexcept { return toolchain_; }

  // ---- test hooks (jit_test exercises every failure path; they
  // forward to the owned toolchain) ----------------------------------
  /// Overrides compiler detection: a path to use verbatim, or "" to
  /// restore auto-detection. Resets the cached probe either way.
  void test_set_compiler(const std::string& path);
  /// Appends an #error to every generated source before hashing, so
  /// the corrupted unit misses the cache and the compile fails.
  void test_corrupt_source(bool on);
  /// Makes the dlopen step report failure.
  void test_fail_dlopen(bool on);

 private:
  void worker_loop();

  std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::pair<std::shared_ptr<JitState>, JitConfig>> queue_;
  bool worker_running_ = false;
  bool busy_ = false;
  bool stop_ = false;
  std::thread worker_;

  NativeToolchain toolchain_;
};

}  // namespace vcal::spmd
