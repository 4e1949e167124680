#include "serve/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "proc/wire.hpp"
#include "support/error.hpp"

namespace vcal::serve {
namespace {

// A frame payload larger than this is garbage (or an attack), not a
// request: the largest legitimate payloads are dense array images, and
// even those stay far below this. Rejecting early keeps one bad client
// from making the server allocate unbounded memory.
constexpr std::uint32_t kMaxPayload = 1u << 28;  // 256 MiB

bool write_all(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

/// Returns bytes read; a short count means EOF mid-read, 0 clean EOF.
size_t read_all(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t k = ::read(fd, p + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (k == 0) break;
    got += static_cast<size_t>(k);
  }
  return got;
}

void put_engine(proc::WireWriter& w, const rt::EngineOptions& e) {
  w.put_i64(e.threads);
  w.put_u8(e.trace ? 1 : 0);
  w.put_i64(e.trace_capacity);
  w.put_u8(e.jit ? 1 : 0);
  w.put_i64(e.jit_threshold);
  w.put_u8(e.jit_sync ? 1 : 0);
  w.put_str(e.jit_cache_dir);
}

rt::EngineOptions get_engine(proc::WireReader& r) {
  rt::EngineOptions e;
  e.threads = static_cast<int>(r.get_i64());
  e.trace = r.get_u8() != 0;
  e.trace_capacity = r.get_i64();
  e.jit = r.get_u8() != 0;
  e.jit_threshold = static_cast<int>(r.get_i64());
  e.jit_sync = r.get_u8() != 0;
  e.jit_cache_dir = r.get_str();
  return e;
}

void put_build(proc::WireWriter& w, const gen::BuildOptions& b) {
  w.put_u8(static_cast<std::uint8_t>(b.bs_form));
  w.put_u8(b.allow_enumerate_k ? 1 : 0);
  w.put_u8(b.force_runtime_resolution ? 1 : 0);
  w.put_i64(b.max_pieces);
}

gen::BuildOptions get_build(proc::WireReader& r) {
  gen::BuildOptions b;
  b.bs_form = static_cast<gen::BuildOptions::BsForm>(r.get_u8());
  b.allow_enumerate_k = r.get_u8() != 0;
  b.force_runtime_resolution = r.get_u8() != 0;
  b.max_pieces = r.get_i64();
  return b;
}

void finish(const proc::WireReader& r) {
  require(r.done(), "serve: trailing bytes in payload");
}

}  // namespace

const char* msg_name(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "Hello";
    case MsgType::Welcome: return "Welcome";
    case MsgType::Run: return "Run";
    case MsgType::Result: return "Result";
    case MsgType::GetMetrics: return "GetMetrics";
    case MsgType::Metrics: return "Metrics";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::Bye: return "Bye";
  }
  return "?";
}

void send_frame(int fd, MsgType type,
                const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload)
    throw RuntimeFault("serve: frame payload too large");
  std::uint32_t hdr[2] = {static_cast<std::uint32_t>(type),
                          static_cast<std::uint32_t>(payload.size())};
  std::vector<std::uint8_t> buf(sizeof hdr + payload.size());
  std::memcpy(buf.data(), hdr, sizeof hdr);
  if (!payload.empty())
    std::memcpy(buf.data() + sizeof hdr, payload.data(), payload.size());
  if (!write_all(fd, buf.data(), buf.size()))
    throw RuntimeFault("serve: peer closed while sending " +
                       std::string(msg_name(type)));
}

bool recv_frame(int fd, Frame* out) {
  std::uint32_t hdr[2];
  size_t got = read_all(fd, hdr, sizeof hdr);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got != sizeof hdr) throw RuntimeFault("serve: truncated frame header");
  if (hdr[1] > kMaxPayload)
    throw RuntimeFault("serve: oversized frame rejected");
  out->type = static_cast<MsgType>(hdr[0]);
  out->payload.resize(hdr[1]);
  if (hdr[1] != 0 && read_all(fd, out->payload.data(), hdr[1]) != hdr[1])
    throw RuntimeFault("serve: truncated frame payload");
  return true;
}

std::vector<std::uint8_t> encode_hello(std::uint32_t version) {
  proc::WireWriter w;
  w.put_u32(version);
  return std::move(w.bytes);
}

std::uint32_t decode_hello(const std::vector<std::uint8_t>& payload) {
  proc::WireReader r(payload.data(), payload.size());
  std::uint32_t v = r.get_u32();
  finish(r);
  return v;
}

std::vector<std::uint8_t> encode_welcome(std::uint32_t version,
                                         i64 session_id) {
  proc::WireWriter w;
  w.put_u32(version);
  w.put_i64(session_id);
  return std::move(w.bytes);
}

void decode_welcome(const std::vector<std::uint8_t>& payload,
                    std::uint32_t* version, i64* session_id) {
  proc::WireReader r(payload.data(), payload.size());
  *version = r.get_u32();
  *session_id = r.get_i64();
  finish(r);
}

std::vector<std::uint8_t> encode_build_options(const gen::BuildOptions& b) {
  proc::WireWriter w;
  put_build(w, b);
  return std::move(w.bytes);
}

gen::BuildOptions decode_build_options(const std::vector<std::uint8_t>& b) {
  proc::WireReader r(b.data(), b.size());
  gen::BuildOptions out = get_build(r);
  finish(r);
  return out;
}

std::vector<std::uint8_t> encode_run(const RunRequest& req) {
  proc::WireWriter w;
  w.put_i64(req.request_id);
  w.put_str(req.source);
  w.put_u8(static_cast<std::uint8_t>(req.target));
  put_build(w, req.build);
  put_engine(w, req.engine);
  w.put_u8(req.elide_barriers ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(req.inputs.size()));
  for (const RunRequest::Input& in : req.inputs) {
    w.put_str(in.name);
    w.put_u8(in.ramp ? 1 : 0);
    if (!in.ramp) w.put_f64s(in.values);
  }
  w.put_u32(static_cast<std::uint32_t>(req.gather.size()));
  for (const std::string& g : req.gather) w.put_str(g);
  w.put_u8(req.want_stats ? 1 : 0);
  return std::move(w.bytes);
}

RunRequest decode_run(const std::vector<std::uint8_t>& payload) {
  proc::WireReader r(payload.data(), payload.size());
  RunRequest req;
  req.request_id = r.get_i64();
  req.source = r.get_str();
  req.target = static_cast<Target>(r.get_u8());
  req.build = get_build(r);
  req.engine = get_engine(r);
  req.elide_barriers = r.get_u8() != 0;
  // An input is at least a name length and its ramp byte.
  std::uint32_t n = r.get_count(sizeof(std::uint32_t) + 1);
  req.inputs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    req.inputs[i].name = r.get_str();
    req.inputs[i].ramp = r.get_u8() != 0;
    if (!req.inputs[i].ramp) req.inputs[i].values = r.get_f64s();
  }
  std::uint32_t g = r.get_count(sizeof(std::uint32_t));  // name lengths
  req.gather.resize(g);
  for (std::uint32_t i = 0; i < g; ++i) req.gather[i] = r.get_str();
  req.want_stats = r.get_u8() != 0;
  finish(r);
  return req;
}

std::vector<std::uint8_t> encode_result(const RunResult& res) {
  proc::WireWriter w;
  w.put_i64(res.request_id);
  w.put_u8(static_cast<std::uint8_t>(res.status));
  w.put_u8(static_cast<std::uint8_t>(res.error_kind));
  w.put_str(res.error);
  w.put_u8(res.cache_hit ? 1 : 0);
  w.put_u8(res.coalesced ? 1 : 0);
  w.put_f64(res.compile_ms);
  w.put_i64(res.plan_hits);
  w.put_i64(res.plan_misses);
  w.put_u32(static_cast<std::uint32_t>(res.stores.size()));
  for (const auto& [name, vals] : res.stores) {
    w.put_str(name);
    w.put_f64s(vals);
  }
  w.put_str(res.stats_line);
  return std::move(w.bytes);
}

RunResult decode_result(const std::vector<std::uint8_t>& payload) {
  proc::WireReader r(payload.data(), payload.size());
  RunResult res;
  res.request_id = r.get_i64();
  res.status = static_cast<Status>(r.get_u8());
  res.error_kind = static_cast<ErrKind>(r.get_u8());
  res.error = r.get_str();
  res.cache_hit = r.get_u8() != 0;
  res.coalesced = r.get_u8() != 0;
  res.compile_ms = r.get_f64();
  res.plan_hits = r.get_i64();
  res.plan_misses = r.get_i64();
  // A store is at least a name length and a value count.
  std::uint32_t n = r.get_count(2 * sizeof(std::uint32_t));
  res.stores.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    res.stores[i].first = r.get_str();
    res.stores[i].second = r.get_f64s();
  }
  res.stats_line = r.get_str();
  finish(r);
  return res;
}

std::vector<std::uint8_t> encode_metrics(const std::string& server_json,
                                         const std::string& session_json) {
  proc::WireWriter w;
  w.put_str(server_json);
  w.put_str(session_json);
  return std::move(w.bytes);
}

void decode_metrics(const std::vector<std::uint8_t>& payload,
                    std::string* server_json, std::string* session_json) {
  proc::WireReader r(payload.data(), payload.size());
  *server_json = r.get_str();
  *session_json = r.get_str();
  finish(r);
}

}  // namespace vcal::serve
