#include "serve/compile_cache.hpp"

#include <chrono>

#include "lang/translate.hpp"
#include "support/error.hpp"

namespace vcal::serve {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

ErrKind classify(const std::exception& e) {
  if (dynamic_cast<const ParseError*>(&e) != nullptr) return ErrKind::Parse;
  if (dynamic_cast<const SemanticError*>(&e) != nullptr)
    return ErrKind::Semantic;
  if (dynamic_cast<const CodegenError*>(&e) != nullptr)
    return ErrKind::Codegen;
  if (dynamic_cast<const RuntimeFault*>(&e) != nullptr)
    return ErrKind::Runtime;
  if (dynamic_cast<const InternalError*>(&e) != nullptr)
    return ErrKind::Internal;
  return ErrKind::Other;
}

}  // namespace

std::uint64_t compile_fingerprint(const std::string& source,
                                  const gen::BuildOptions& build) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, source.data(), source.size());
  std::uint8_t sep = 0xFF;  // source is text; 0xFF cannot appear in ASCII
  fnv_mix(h, &sep, 1);
  std::vector<std::uint8_t> opts = encode_build_options(build);
  fnv_mix(h, opts.data(), opts.size());
  return h;
}

CompileCache::Outcome CompileCache::get(const std::string& source,
                                        const gen::BuildOptions& build) {
  const std::uint64_t key = compile_fingerprint(source, build);

  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::unique_lock<std::mutex> lock(m_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++counters_.hits;
      touch(key);
      return Outcome{it->second, /*hit=*/true, /*coalesced=*/false};
    }
    auto fit = flights_.find(key);
    if (fit != flights_.end()) {
      flight = fit->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_.emplace(key, flight);
      owner = true;
    }
  }

  if (!owner) {
    // Singleflight waiter: block until the owner publishes, then share.
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return flight->done; });
    ++counters_.coalesced;
    return Outcome{flight->result, /*hit=*/false, /*coalesced=*/true};
  }

  // Singleflight owner: compile outside the lock so waiters on OTHER
  // keys are not serialized behind this one.
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  auto t0 = std::chrono::steady_clock::now();
  try {
    entry->program = lang::compile(source);
    entry->ok = true;
    entry->kernels = std::make_shared<spmd::KernelCache>();
  } catch (const std::exception& e) {
    entry->ok = false;
    entry->error_kind = classify(e);
    entry->error = e.what();
  }
  entry->compile_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  {
    std::lock_guard<std::mutex> lock(m_);
    entries_.emplace(key, entry);
    lru_.push_front(key);
    lru_pos_[key] = lru_.begin();
    enforce_capacity();
    flight->result = entry;
    flight->done = true;
    flights_.erase(key);
    ++counters_.misses;
    ++counters_.compiles;
    counters_.entries = static_cast<i64>(entries_.size());
  }
  cv_.notify_all();
  return Outcome{entry, /*hit=*/false, /*coalesced=*/false};
}

void CompileCache::touch(std::uint64_t key) {
  auto it = lru_pos_.find(key);
  if (it == lru_pos_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second);
}

void CompileCache::enforce_capacity() {
  if (capacity_ <= 0) return;
  while (static_cast<i64>(entries_.size()) > capacity_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    entries_.erase(victim);
    ++counters_.evictions;
  }
}

CompileCache::Counters CompileCache::counters() const {
  std::lock_guard<std::mutex> lock(m_);
  Counters c = counters_;
  c.entries = static_cast<i64>(entries_.size());
  return c;
}

i64 CompileCache::capacity() const { return capacity_; }

}  // namespace vcal::serve
