#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"

/// \file wire.h
/// Little-endian binary encoding helpers shared by the checkpoint
/// subsystem: the snapshot envelope (checkpoint.h) and the operator state
/// payloads serialized by the stateful bolts (SpearWindowManager). Free of
/// any tuple dependency, so state payloads stay opaque byte strings to the
/// store.

namespace spear {
namespace wire {

inline void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

// Fixed-width fields are written little-endian, one append per field.
inline void AppendU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

inline void AppendU64(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

inline void AppendI64(std::string* out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

inline void AppendF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

inline void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

/// \brief Bounds-checked sequential reader over an encoded byte string.
/// Every accessor returns kOutOfRange instead of reading past the end, so
/// a truncated or corrupted payload fails decoding instead of crashing.
class Reader {
 public:
  explicit Reader(const std::string& data) : Reader(data, data.size()) {}
  /// Reads only the first `size` bytes of `data` (at most all of them).
  Reader(const std::string& data, std::size_t size)
      : data_(data.data()), size_(std::min(size, data.size())) {}
  // The reader aliases the caller's buffer; a temporary would dangle.
  explicit Reader(std::string&&) = delete;
  Reader(std::string&&, std::size_t) = delete;

  Result<std::uint8_t> ReadU8() {
    SPEAR_ASSIGN_OR_RETURN(const char* p, Take(1));
    return static_cast<std::uint8_t>(*p);
  }

  Result<std::uint32_t> ReadU32() {
    SPEAR_ASSIGN_OR_RETURN(const char* p, Take(4));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  Result<std::uint64_t> ReadU64() {
    SPEAR_ASSIGN_OR_RETURN(const char* p, Take(8));
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  Result<std::int64_t> ReadI64() {
    SPEAR_ASSIGN_OR_RETURN(std::uint64_t v, ReadU64());
    return static_cast<std::int64_t>(v);
  }

  Result<double> ReadF64() {
    SPEAR_ASSIGN_OR_RETURN(std::uint64_t bits, ReadU64());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> ReadString() {
    SPEAR_ASSIGN_OR_RETURN(std::uint32_t n, ReadU32());
    SPEAR_ASSIGN_OR_RETURN(const char* p, Take(n));
    return std::string(p, n);
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  Result<const char*> Take(std::size_t n) {
    if (size_ - pos_ < n) {
      return Status::OutOfRange("wire: truncated payload (need " +
                                std::to_string(n) + " bytes at offset " +
                                std::to_string(pos_) + " of " +
                                std::to_string(size_) + ")");
    }
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace wire
}  // namespace spear
