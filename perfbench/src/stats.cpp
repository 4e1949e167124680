// Order statistics, the operation tally and the determinism check.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1 || std::isinf(v[mid])) return v[mid];
  return (v[mid - 1] + v[mid]) / 2;
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() > 10 ? v.size() - 11 : v.size() - 1];
}

namespace {
// Enough failure lines to diagnose a run without flooding stderr.
constexpr int kMaxReports = 20;
int reports = 0;
}  // namespace

void Tally::fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (!quiet && reports++ < kMaxReports)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Determinism::check(const std::string& key, const std::string& signature) {
  auto [it, fresh] = seen_.emplace(key, signature);
  if (!fresh && it->second != signature)
    tally_.fail("counts of " + key + " changed between repeats: [" +
                it->second + "] then [" + signature + "]");
}

void Tally::invalidate(const std::string& why) {
  invalid = true;
  std::fprintf(stderr, "perfbench: INVALID RUN: %s\n", why.c_str());
}

}  // namespace perfbench
