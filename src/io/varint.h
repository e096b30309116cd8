// Integer codings for io's binary formats.
//
// Scan archives store millions of small integers (TTLs, deltas, counters);
// LEB128-style varint coding keeps a full-universe archive a few dozen
// megabytes instead of hundreds, and per-prefix byte vectors carry a
// varint length.  Fixed-width little-endian fields are for the few places
// a field's size must be known before it is read (record frame headers,
// the archive's job id).

#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace flashroute::io {

/// Writes `value` as a base-128 varint (1..10 bytes).
inline void write_varint(std::ostream& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.put(static_cast<char>(0x80 | (value & 0x7F)));
    value >>= 7;
  }
  out.put(static_cast<char>(value));
}

/// Reads a varint; returns nullopt on EOF, truncation, or overlong input.
[[nodiscard]] inline std::optional<std::uint64_t> read_varint(std::istream& in) {
  std::uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    const int byte = in.get();
    if (byte == std::char_traits<char>::eof()) return std::nullopt;
    value |= (static_cast<std::uint64_t>(byte) & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;  // > 10 bytes: malformed
}

/// Writes a byte vector: its length as a varint, then the bytes.
inline void write_bytes(std::ostream& out,
                        const std::vector<std::uint8_t>& bytes) {
  write_varint(out, bytes.size());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Reads a write_bytes vector; false on truncation or a length over 2^32.
[[nodiscard]] inline bool read_bytes(std::istream& in,
                                     std::vector<std::uint8_t>& bytes) {
  const auto size = read_varint(in);
  if (!size || *size > (std::uint64_t{1} << 32)) return false;
  bytes.resize(static_cast<std::size_t>(*size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return in.good() || bytes.empty();
}

/// Appends the low `bytes` bytes of `value`, little-endian.
inline void put_le(std::string& out, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

/// Reads a `bytes`-byte little-endian integer.
inline std::uint64_t get_le(const char* in, std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(in[i])} << (8 * i);
  }
  return value;
}

}  // namespace flashroute::io
