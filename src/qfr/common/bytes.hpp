#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace qfr::common {

/// The one binary codec of every stored or shipped record (fragment-result
/// records, cache keys, on-disk frames, wire payloads): fixed-width
/// little-endian integers and raw IEEE-754 doubles (host order; every
/// supported target is little-endian), so results round-trip bitwise.
/// Writers append to a byte string; ByteReader never trusts a length or
/// count field, so truncated or hostile input is a clean `false`.

inline void put_bytes(std::string& out, const void* data, std::size_t n) {
  if (n != 0) out.append(static_cast<const char*>(data), n);
}
inline void put_u32(std::string& out, std::uint32_t v) {
  put_bytes(out, &v, sizeof(v));
}
inline void put_u64(std::string& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof(v));
}
inline void put_f64(std::string& out, double v) {
  put_bytes(out, &v, sizeof(v));
}
/// Length-prefixed (u64) byte string.
inline void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  put_bytes(out, s.data(), s.size());
}

/// Bounded reader over a borrowed view: every get checks the bytes left.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : p_(bytes.data()), n_(bytes.size()) {}

  bool at_end() const { return n_ == 0; }
  /// Whether `count` items of `item_bytes` each fit in the bytes left:
  /// the check before any allocation sized by a decoded count.
  bool holds(std::uint64_t count, std::size_t item_bytes) const {
    return count <= n_ / item_bytes;
  }

  bool get_bytes(void* dst, std::size_t n) {
    if (n > n_) return false;
    if (n != 0) std::memcpy(dst, p_, n);
    p_ += n;
    n_ -= n;
    return true;
  }
  bool get_u32(std::uint32_t* v) { return get_bytes(v, sizeof(*v)); }
  bool get_u64(std::uint64_t* v) { return get_bytes(v, sizeof(*v)); }
  bool get_f64(double* v) { return get_bytes(v, sizeof(*v)); }
  /// Length-prefixed byte string as a view into the input (no copy).
  bool get_view(std::string_view* s) {
    std::uint64_t len = 0;
    if (!get_u64(&len) || len > n_) return false;
    *s = std::string_view(p_, static_cast<std::size_t>(len));
    p_ += len;
    n_ -= static_cast<std::size_t>(len);
    return true;
  }
  bool get_string(std::string* s) {
    std::string_view v;
    if (!get_view(&v)) return false;
    s->assign(v);
    return true;
  }

 private:
  const char* p_;
  std::size_t n_;
};

}  // namespace qfr::common
