// Shared-memory ring channels for the multi-process backend: one
// single-producer / single-consumer ring per ordered (src, dst) rank
// pair, backed by an mmap'd file in the run's channel directory.
//
// The ring carries fixed 16-byte slots. A frame is one header slot —
// magic, kind (CLAUSE / HALO / REDIST), payload slot count, step index —
// followed by `count` payload slots, matching the engine's bulk-channel
// framing: all elements flowing src -> dst in one step travel as one
// frame. CLAUSE payload slots carry (tag, value) pairs in packed channel
// order on a tagged step and bare values in SendPlan order on a
// scheduled one; HALO and REDIST slots carry bare values. Both endpoints
// derive every bare-value order independently from the decompositions.
//
// head/tail are monotonically increasing slot counters in the mapped
// header (producer writes head with release, consumer writes tail with
// release; each side reads the other's counter with acquire), so a
// partial write of a large frame is visible to the reader immediately —
// workers interleave partial writes and opportunistic reads to stay
// deadlock-free even when a frame exceeds the ring capacity.
#pragma once

#include <cstdint>
#include <string>

#include "support/math.hpp"

namespace vcal::proc {

struct Slot {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

enum class FrameKind : std::uint32_t {
  Clause = 1,  // (tag, value) pairs, or packed values (scheduled step)
  Halo = 2,    // halo boundary values, enumeration order
  Redist = 3,  // migrating elements, global index order
};

// Header slot: a = magic(16) | kind(16) | count(32), b = step.
inline constexpr std::uint64_t kFrameMagic = 0x7663;  // "vc"

inline Slot frame_header(FrameKind kind, std::uint32_t count, i64 step) {
  Slot s;
  s.a = (kFrameMagic << 48) |
        (static_cast<std::uint64_t>(kind) << 32) | count;
  s.b = static_cast<std::uint64_t>(step);
  return s;
}

inline bool parse_frame_header(Slot s, FrameKind* kind,
                               std::uint32_t* count, i64* step) {
  if ((s.a >> 48) != kFrameMagic) return false;
  *kind = static_cast<FrameKind>((s.a >> 32) & 0xffff);
  *count = static_cast<std::uint32_t>(s.a & 0xffffffff);
  *step = static_cast<i64>(s.b);
  return *kind == FrameKind::Clause || *kind == FrameKind::Halo ||
         *kind == FrameKind::Redist;
}

inline Slot clause_slot(i64 tag, double value) {
  Slot s;
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof value);
  __builtin_memcpy(&bits, &value, sizeof bits);
  s.a = static_cast<std::uint64_t>(tag);
  s.b = bits;
  return s;
}

inline Slot value_slot(double value) {
  Slot s;
  std::uint64_t bits;
  __builtin_memcpy(&bits, &value, sizeof bits);
  s.b = bits;
  return s;
}

inline i64 slot_tag(Slot s) { return static_cast<i64>(s.a); }

inline double slot_value(Slot s) {
  double v;
  __builtin_memcpy(&v, &s.b, sizeof v);
  return v;
}

/// Ring file for the ordered (src, dst) pair inside a channel dir.
inline std::string ring_path(const std::string& dir, i64 src, i64 dst) {
  return dir + "/ring_" + std::to_string(src) + "_" +
         std::to_string(dst) + ".ch";
}

class Ring {
 public:
  Ring() = default;
  Ring(Ring&& o) noexcept { swap(o); }
  Ring& operator=(Ring&& o) noexcept {
    swap(o);
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring();

  /// Creates (truncating) and initializes the ring file. Called by the
  /// launcher before any worker is spawned.
  static void create(const std::string& path, i64 slots);

  /// Maps an existing ring file. Both endpoints map read-write (the
  /// producer writes head + data, the consumer writes tail).
  void open(const std::string& path);

  bool is_open() const { return map_ != nullptr; }
  i64 capacity() const { return slots_; }

  /// Producer side: writes up to n slots, returns how many fit.
  i64 try_write(const Slot* s, i64 n);

  /// Consumer side: reads up to max slots, returns how many arrived.
  i64 try_read(Slot* s, i64 max);

 private:
  void swap(Ring& o) noexcept;

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  i64 slots_ = 0;
  std::uint64_t* head_ = nullptr;  // producer-owned, monotonic
  std::uint64_t* tail_ = nullptr;  // consumer-owned, monotonic
  Slot* data_ = nullptr;
};

}  // namespace vcal::proc
