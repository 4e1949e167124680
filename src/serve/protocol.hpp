// Wire protocol of the compile-and-execute service.
//
// A served session is one connection speaking length-prefixed frames —
// the same [u32 type][u32 length][payload] layout as the proc
// control plane (proc/control.hpp), with payloads packed through
// proc/wire.hpp. Everything is host-endian: the server never leaves
// one machine (UDS, or TCP on loopback for the multi-host simulation),
// matching the proc backend's transport assumptions.
//
//   client                          server
//     Hello {version} ----------->
//                      <----------- Welcome {version, session id}
//     Run {request} ------------->
//                      <----------- Result {request id, ...}   (xN, any order)
//     GetMetrics ---------------->
//                      <----------- Metrics {server json, session json}
//     Shutdown ------------------>
//                      <----------- Bye
//
// Run results may return out of request order (executors are shared
// across sessions); the request id pairs them. A session over its
// in-flight cap receives Status::Rejected immediately — backpressure
// is a response, never an unbounded queue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/optimizer.hpp"
#include "rt/engine_options.hpp"
#include "support/math.hpp"

namespace vcal::serve {

constexpr std::uint32_t kProtocolVersion = 3;

enum class MsgType : std::uint32_t {
  Hello = 1,       // client -> server: protocol version
  Welcome = 2,     // server -> client: version + session id
  Run = 3,         // client -> server: one program execution request
  Result = 4,      // server -> client: outcome of one Run
  GetMetrics = 5,  // client -> server: snapshot request
  Metrics = 6,     // server -> client: server + session metrics JSON
  Shutdown = 7,    // client -> server: stop serving after this session
  Bye = 8,         // server -> client: shutdown acknowledged
};

const char* msg_name(MsgType t);

/// Which machine executes the program (mirrors vcalc --target).
enum class Target : std::uint8_t { Dist = 0, Shared = 1, Seq = 2 };

enum class Status : std::uint8_t {
  Ok = 0,
  CompileError = 1,  // parse / semantic / plan failure (cached!)
  RunError = 2,      // execution raised an engine exception
  Rejected = 3,      // session over its in-flight cap: retry later
};

/// Exception kind carried by CompileError/RunError results so clients
/// can distinguish user errors from engine faults (mirrors the proc
/// control plane's ErrCode idea).
enum class ErrKind : std::uint8_t {
  None = 0,
  Parse = 1,
  Semantic = 2,
  Codegen = 3,
  Runtime = 4,
  Internal = 6,
  Other = 7,
};

struct RunRequest {
  i64 request_id = 0;
  std::string source;            // vexl program text
  Target target = Target::Dist;
  gen::BuildOptions build;
  rt::EngineOptions engine;
  bool elide_barriers = false;   // shared target only

  /// Input arrays. `ramp` fills with 0,1,2,... (matching vcalc --init)
  /// without shipping the values; otherwise `values` is the dense
  /// row-major image.
  struct Input {
    std::string name;
    bool ramp = true;
    std::vector<double> values;
  };
  std::vector<Input> inputs;

  std::vector<std::string> gather;  // arrays returned in the result
  bool want_stats = true;           // return the machine's stats line
};

struct RunResult {
  i64 request_id = 0;
  Status status = Status::Ok;
  ErrKind error_kind = ErrKind::None;
  std::string error;

  bool cache_hit = false;   // compile cache: parse->rewrite->plan skipped
  bool coalesced = false;   // waited on another request's compile
  double compile_ms = 0.0;  // this request's share of compile time
  i64 plan_hits = 0;        // plan-cache delta during this execution
  i64 plan_misses = 0;

  std::vector<std::pair<std::string, std::vector<double>>> stores;
  std::string stats_line;  // DistStats/SharedStats line ("" for seq)
};

// ---- framing (blocking fds; both sides of the serve socket) ---------

/// Blocking full write of one frame (EINTR-safe). Throws RuntimeFault
/// if the peer is gone.
void send_frame(int fd, MsgType type,
                const std::vector<std::uint8_t>& payload);

struct Frame {
  MsgType type = MsgType::Bye;
  std::vector<std::uint8_t> payload;
};

/// Blocking read of one frame. Returns false on clean EOF at a frame
/// boundary; throws RuntimeFault on a truncated or oversized frame.
bool recv_frame(int fd, Frame* out);

// ---- payload packing -------------------------------------------------

std::vector<std::uint8_t> encode_hello(std::uint32_t version);
std::uint32_t decode_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_welcome(std::uint32_t version,
                                         i64 session_id);
void decode_welcome(const std::vector<std::uint8_t>& payload,
                    std::uint32_t* version, i64* session_id);

/// The BuildOptions encoder is exposed because the compile cache
/// fingerprints the same bytes: the wire form IS the cache-key form,
/// so a knob added to BuildOptions cannot silently escape the key.
/// EngineOptions is deliberately NOT part of the compile-cache key
/// (engine knobs never change programs or results — the conformance
/// oracle pins bit-identity across the whole engine matrix).
std::vector<std::uint8_t> encode_build_options(const gen::BuildOptions& b);
gen::BuildOptions decode_build_options(const std::vector<std::uint8_t>& b);

std::vector<std::uint8_t> encode_run(const RunRequest& req);
RunRequest decode_run(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_result(const RunResult& res);
RunResult decode_result(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_metrics(const std::string& server_json,
                                         const std::string& session_json);
void decode_metrics(const std::vector<std::uint8_t>& payload,
                    std::string* server_json, std::string* session_json);

}  // namespace vcal::serve
