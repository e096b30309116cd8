// The byte codec of every binary format in io and svc (DESIGN.md §14.1):
// the FRSC scan archive, the FRCK checkpoint, the RecordLog frame header,
// the JobArchive job-id prefix, the FRWJ journal records and frd's wire
// messages.
//
// Writer appends to a std::string: raw bytes, little-endian fixed-width
// integers, IEEE-754 doubles (bit-cast to u64), base-128 varints (1..10
// bytes, so the millions of small integers in a scan archive cost a byte
// or two each), and length-prefixed byte strings (a varint length, then
// the bytes).
//
// Reader decodes a std::string_view in place.  Its first failure latches
// ok() to false: a short read, a varint longer than 10 bytes, or a
// declared length or count that the bytes left cannot hold.  Every later
// read yields zero or empty, so a decoder may read a whole record and
// check ok() once.  A length is checked before anything is allocated for
// it, so a damaged or crafted length field costs no memory.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flashroute::io {

class Writer {
 public:
  void put_raw(std::string_view bytes) { bytes_.append(bytes); }
  void put_u8(std::uint8_t value) {
    bytes_.push_back(static_cast<char>(value));
  }
  void put_bool(bool value) { put_u8(value ? 1 : 0); }
  void put_u32(std::uint32_t value) { put_le(value, 4); }
  void put_u64(std::uint64_t value) { put_le(value, 8); }
  void put_f64(double value) { put_u64(std::bit_cast<std::uint64_t>(value)); }

  void put_varint(std::uint64_t value) {
    for (; value >= 0x80; value >>= 7) {
      put_u8(static_cast<std::uint8_t>(value | 0x80));
    }
    put_u8(static_cast<std::uint8_t>(value));
  }

  /// A varint length, then the bytes.
  void put_string(std::string_view value) {
    put_varint(value.size());
    put_raw(value);
  }
  void put_bytes(const std::vector<std::uint8_t>& value) {
    put_string({reinterpret_cast<const char*>(value.data()), value.size()});
  }

  /// Everything written so far.
  const std::string& str() const noexcept { return bytes_; }

 private:
  void put_le(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      put_u8(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  std::string bytes_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  /// The next `size` bytes, in place; empty after a failure.
  std::string_view raw(std::size_t size) {
    if (size > rest_.size()) {
      fail();
      return {};
    }
    const std::string_view taken = rest_.substr(0, size);
    rest_.remove_prefix(size);
    return taken;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  bool boolean() { return u8() != 0; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      const std::uint8_t byte = u8();
      value |= std::uint64_t{byte & 0x7Fu} << shift;
      if ((byte & 0x80) == 0) return ok_ ? value : 0;
    }
    fail();  // an eleventh byte: no encoder writes one
    return 0;
  }

  /// A varint count of items that take at least `min_bytes` each; fails
  /// (yielding 0) when the bytes left cannot hold that many.
  std::uint64_t count(std::size_t min_bytes) {
    const std::uint64_t items = varint();
    if (items > rest_.size() / min_bytes) {
      fail();
      return 0;
    }
    return items;
  }

  /// A put_string or put_bytes value.
  std::string string() { return std::string(raw(count(1))); }
  std::vector<std::uint8_t> bytes() {
    const std::string_view value = raw(count(1));
    const auto* data = reinterpret_cast<const std::uint8_t*>(value.data());
    return {data, data + value.size()};
  }

  /// False once any read has failed.
  bool ok() const noexcept { return ok_; }
  /// True when every byte has been read and no read failed.
  bool done() const noexcept { return ok_ && rest_.empty(); }

 private:
  void fail() {
    ok_ = false;
    rest_ = {};
  }

  // The loop runs to `bytes`, a constant at every call, so the compiler
  // turns it into one load: crc32c reads its words through here.
  std::uint64_t le(std::size_t bytes) {
    const char* field = raw(bytes).data();
    if (!ok_) return 0;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      value |= std::uint64_t{static_cast<unsigned char>(field[i])} << (8 * i);
    }
    return value;
  }

  std::string_view rest_;
  bool ok_ = true;
};

}  // namespace flashroute::io
