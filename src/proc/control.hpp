// Control-plane framing for the multi-process backend: a Unix-domain
// stream socket per run over which every worker sends HELLO (rank +
// options echo), receives GO once all ranks are up, then streams one
// STEP frame per completed program step (its RankCounters, its
// message-matrix row delta, and the faults it applied), and finally
// RESULT (its local store rows and trace events) and DONE. A worker
// that hits an engine exception sends ERROR instead, carrying the
// exception kind so the launcher can rethrow the same type verbatim.
//
// Frames are [u32 type][u32 payload length][payload bytes]; payloads
// use the wire.hpp packing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vcal::proc {

enum class MsgType : std::uint32_t {
  Hello = 1,   // worker -> launcher: rank, options echo
  Go = 2,      // launcher -> worker: all ranks connected, start
  Step = 3,    // worker -> launcher: per-step counters + matrix row
  Error = 4,   // worker -> launcher: engine exception (kind + message)
  Result = 5,  // worker -> launcher: final local rows + trace events
  Done = 6,    // worker -> launcher: clean shutdown
};

const char* msg_name(MsgType t);

inline std::string control_socket_path(const std::string& dir) {
  return dir + "/control.sock";
}

// Exception kinds relayed through ERROR frames so the launcher rethrows
// the type the simulator would have thrown.
enum class ErrCode : std::uint32_t {
  Runtime = 1,
  Codegen = 3,
  Semantic = 4,
  Internal = 5,
  Other = 6,
};

struct ControlFrame {
  MsgType type = MsgType::Done;
  std::vector<std::uint8_t> payload;
};

/// Blocking full write of one frame (EINTR-safe). Throws RuntimeFault
/// if the peer is gone.
void send_frame(int fd, MsgType type,
                const std::vector<std::uint8_t>& payload);

/// Blocking read of one frame. Returns false on clean EOF at a frame
/// boundary; throws RuntimeFault on a truncated or corrupt frame.
bool recv_frame(int fd, ControlFrame* out);

/// Reassembles frames from a non-blocking byte stream (launcher side).
struct FrameSplitter {
  std::vector<std::uint8_t> buf;

  void feed(const std::uint8_t* data, std::size_t n);
  /// Extracts the next complete frame, if any.
  bool next(ControlFrame* out);
};

}  // namespace vcal::proc
