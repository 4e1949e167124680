// In-memory span recorder for the traced run.
//
// Spans nest per thread (a thread-local stack names each span's
// parent) and carry a request id inherited from the parent unless one is
// given. Records are appended under one mutex when a span ends; the
// untraced run records nothing, so a span there costs two clock reads.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Record {
  std::string name;
  double start_us = 0, end_us = 0;
  i64 id = 0, parent = 0, request = 0;
};

std::atomic<bool> g_on{false};
std::atomic<i64> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();
std::mutex g_m;
std::vector<Record> g_records;  // guarded by g_m

struct Frame {
  i64 id;
  i64 request;
};
thread_local std::vector<Frame> t_stack;

double us_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

// Self time of every record: its duration minus the union of its
// children's intervals (clipped to the parent).
std::vector<double> self_us(const std::vector<Record>& recs) {
  std::unordered_map<i64, std::size_t> index;
  for (std::size_t k = 0; k < recs.size(); ++k) index[recs[k].id] = k;
  std::vector<std::vector<std::pair<double, double>>> kids(recs.size());
  for (const Record& r : recs) {
    auto it = index.find(r.parent);
    if (it != index.end()) kids[it->second].push_back({r.start_us, r.end_us});
  }
  std::vector<double> out(recs.size());
  for (std::size_t k = 0; k < recs.size(); ++k) {
    auto& iv = kids[k];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, recs[k].start_us);
      hi = std::min(hi, recs[k].end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[k] = (recs[k].end_us - recs[k].start_us) - covered;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Span::Span(std::string name, i64 request)
    : name_(std::move(name)), start_(Clock::now()) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = t_stack.empty() ? 0 : t_stack.back().id;
  request_ = request >= 0 ? request
                          : (t_stack.empty() ? 0 : t_stack.back().request);
  t_stack.push_back({id_, request_});
}

Span::~Span() { stop(); }

double Span::stop() {
  if (ms_ >= 0) return ms_;
  Clock::time_point end = Clock::now();
  ms_ = ms_between(start_, end);
  if (id_ != 0) {
    // Spans end in LIFO order on their thread.
    if (!t_stack.empty() && t_stack.back().id == id_) t_stack.pop_back();
    std::lock_guard<std::mutex> lock(g_m);
    g_records.push_back({std::move(name_), us_since_epoch(start_),
                         us_since_epoch(end), id_, parent_, request_});
  }
  return ms_;
}

void enable_spans(bool on) { g_on.store(on); }

bool write_spans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_m);
  std::vector<double> self = self_us(g_records);
  std::map<std::string, double> by_name;  // self time summed per name, ms
  for (std::size_t k = 0; k < g_records.size(); ++k)
    by_name[g_records[k].name] += self[k] / 1000.0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t k = 0; k < g_records.size(); ++k) {
    const Record& r = g_records[k];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"self_us\": %.3f}",
                 k == 0 ? "" : ",\n", json_escape(r.name).c_str(), r.start_us,
                 r.end_us, static_cast<long long>(r.id),
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.request), self[k]);
  }
  std::fprintf(f, "\n], \"self_ms_by_name\": {");
  bool first = true;
  for (const auto& [name, ms] : by_name) {
    std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ",
                 json_escape(name).c_str(), ms);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
