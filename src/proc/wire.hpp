// Byte packing for the proc backend's on-disk job file and control-plane
// frames. Everything is host-endian: the transport never leaves one
// machine (launcher and workers share a channel directory), so no
// conversion is needed — only bounds-checked, alignment-safe access.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/math.hpp"

namespace vcal::proc {

struct WireWriter {
  std::vector<std::uint8_t> bytes;

  void put_u8(std::uint8_t v) { bytes.push_back(v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_i64(i64 v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }
  void put_str(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }
  void put_f64s(const std::vector<double>& v) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    put_raw(v.data(), v.size() * sizeof(double));
  }

 private:
  void put_raw(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null (an empty vector's data())
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  }
};

struct WireReader {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t off = 0;

  WireReader(const std::uint8_t* d, std::size_t n) : data(d), size(n) {}

  std::uint8_t get_u8() {
    need(1);
    return data[off++];
  }
  std::uint32_t get_u32() {
    std::uint32_t v;
    get_raw(&v, sizeof v);
    return v;
  }
  i64 get_i64() {
    i64 v;
    get_raw(&v, sizeof v);
    return v;
  }
  double get_f64() {
    double v;
    get_raw(&v, sizeof v);
    return v;
  }
  std::string get_str() {
    std::uint32_t n = get_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data + off), n);
    off += n;
    return s;
  }
  /// Reads a u32 element count and requires that many items of at least
  /// `min_item_bytes` each to fit in the bytes remaining, so a corrupt
  /// count fails here instead of sizing an allocation.
  std::uint32_t get_count(std::size_t min_item_bytes) {
    const std::uint32_t n = get_u32();
    need(static_cast<std::size_t>(n) * min_item_bytes);
    return n;
  }
  std::vector<double> get_f64s() {
    const std::uint32_t n = get_count(sizeof(double));
    std::vector<double> v(n);
    get_raw(v.data(), static_cast<std::size_t>(n) * sizeof(double));
    return v;
  }
  bool done() const { return off == size; }

 private:
  void need(std::size_t n) {
    require(off + n <= size, "proc wire: truncated payload");
  }
  void get_raw(void* p, std::size_t n) {
    need(n);
    if (n == 0) return;  // memcpy must not see the null data() of an
                         // empty destination
    std::memcpy(p, data + off, n);
    off += n;
  }
};

}  // namespace vcal::proc
