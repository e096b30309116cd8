#include "io/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "io/codec.h"
#include "util/crash_point.h"

namespace flashroute::io {

namespace {

constexpr std::size_t kHeaderBytes = 8;  // magic + u32 payload size
constexpr std::size_t kOverhead = kHeaderBytes + 4;  // + u32 CRC32C
// The open walk's read buffer: the most a recovery holds besides the
// payload heads its caller asks for.
constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;

// Slice-by-8 tables for the reflected Castagnoli polynomial.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t t = 1; t < 8; ++t) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

// Exactly `size` bytes at `offset`; false on error or end of file.
bool read_at(int fd, std::uint64_t offset, char* out, std::size_t size) {
  return ::pread(fd, out, size, static_cast<off_t>(offset)) ==
         static_cast<ssize_t>(size);
}

// Walks a file's frames through a bounded buffer.
struct Scanner {
  int fd;
  std::string_view magic;
  std::uint64_t file_size;
  std::string buffer = std::string(
      static_cast<std::size_t>(std::min(kChunk, file_size)), '\0');

  // The frame at `offset` if it verifies; `head` gets its first `peek`
  // payload bytes.
  std::optional<RecordLog::Frame> verify(std::uint64_t offset,
                                         std::size_t peek,
                                         std::string& head) {
    head.clear();
    char* buf = buffer.data();
    if (offset > file_size || file_size - offset < kOverhead ||
        !read_at(fd, offset, buf, kHeaderBytes)) {
      return std::nullopt;
    }
    Reader header({buf, kHeaderBytes});
    if (header.raw(magic.size()) != magic) return std::nullopt;
    const std::uint64_t size = header.u32();
    if (size > file_size - offset - kOverhead) return std::nullopt;
    std::uint32_t crc = crc32c(0, std::string_view(buf + 4, 4));
    const std::uint64_t payload = offset + kHeaderBytes;
    for (std::uint64_t done = 0; done < size;) {
      const auto n = static_cast<std::size_t>(std::min(kChunk, size - done));
      if (!read_at(fd, payload + done, buf, n)) return std::nullopt;
      crc = crc32c(crc, std::string_view(buf, n));
      if (head.size() < peek) {
        head.append(buf, std::min(n, peek - head.size()));
      }
      done += n;
    }
    if (!read_at(fd, payload + size, buf, 4) ||
        Reader({buf, 4}).u32() != crc) {
      return std::nullopt;
    }
    return RecordLog::Frame{payload, static_cast<std::uint32_t>(size)};
  }

  // Offset of the first magic at or after `from`; file_size when none.
  std::uint64_t find_magic(std::uint64_t from) {
    while (file_size - from >= magic.size()) {
      const auto n =
          static_cast<std::size_t>(std::min(kChunk, file_size - from));
      if (!read_at(fd, from, buffer.data(), n)) break;
      const std::size_t at = std::string_view(buffer.data(), n).find(magic);
      if (at != std::string_view::npos) return from + at;
      from += n - (magic.size() - 1);  // a magic may straddle chunks
    }
    return file_size;
  }
};

// The payload of the one frame spanning exactly [offset, end), verified.
std::optional<std::string> read_frame(int fd, std::string_view magic,
                                      std::uint64_t offset, std::uint64_t end) {
  Scanner scan{fd, magic, end};
  std::string payload;
  const std::optional<RecordLog::Frame> frame =
      scan.verify(offset, end, payload);
  if (!frame.has_value() || frame->offset + frame->size + 4 != end) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace

std::optional<Durability> parse_durability(std::string_view name) {
  if (name == "flush") return Durability::kFlush;
  if (name == "fsync") return Durability::kFsync;
  return std::nullopt;
}

std::uint32_t crc32c(std::uint32_t crc, std::string_view bytes) {
  const auto& t = kCrcTables;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t word = Reader({p, 8}).u64() ^ crc;
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu];
  }
  return ~crc;
}

std::optional<std::string> read_frame_file(const std::string& path,
                                           std::string_view magic) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st = {};
  std::optional<std::string> payload;
  if (fd >= 0 && ::fstat(fd, &st) == 0) {
    payload = read_frame(fd, magic, 0, static_cast<std::uint64_t>(st.st_size));
  }
  if (fd >= 0) ::close(fd);
  return payload;
}

bool publish_frame_atomic(const std::string& path, std::string_view magic,
                          std::string_view payload, bool sync) {
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  bool ok = false;
  {
    RecordLog file(tmp, magic, sync ? Durability::kFsync : Durability::kFlush,
                   util::crash::kCheckpointPublish, 0,
                   [](const RecordLog::Frame&, std::string_view) {});
    ok = file.append(payload).has_value();
  }
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

RecordLog::RecordLog(const std::string& path, std::string_view magic,
                     Durability durability, const char* crash_site,
                     std::size_t peek, const Visitor& visit)
    : magic_(magic),
      durability_(durability),
      crash_site_(crash_site),
      fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666)) {
  struct stat st = {};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) return;
  Scanner scan{fd_, magic, static_cast<std::uint64_t>(st.st_size)};
  std::string head;
  for (std::uint64_t at = 0; at < scan.file_size;) {
    const std::optional<Frame> frame = scan.verify(at, peek, head);
    if (!frame.has_value()) {
      at = scan.find_magic(at + 1);
      continue;
    }
    corrupt_ += at - end_;
    visit(*frame, head);
    at = end_ = frame->offset + frame->size + 4;
  }
  if (end_ == 0 && scan.file_size > 0) {
    // Nothing verifies.  A crash during the first append leaves a strict
    // prefix of one frame: (a prefix of) the magic, shorter than the frame
    // its header declares.  Anything else — another log, an older format,
    // a whole frame damaged in place — is not this log's to cut.
    char header[kHeaderBytes] = {};
    const auto n = static_cast<std::size_t>(
        std::max<ssize_t>(::pread(fd_, header, kHeaderBytes, 0), 0));
    if (n == 0 ||
        std::string_view(header, std::min(n, magic.size())) !=
            magic.substr(0, n) ||
        (n == kHeaderBytes &&
         Reader({header + 4, 4}).u32() + kOverhead <= scan.file_size)) {
      return;
    }
  }
  torn_ = scan.file_size - end_;
  ok_ = torn_ == 0 || ::ftruncate(fd_, static_cast<off_t>(end_)) == 0;
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<RecordLog::Frame> RecordLog::append(std::string_view payload) {
  if (!ok() || payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  Writer frame;
  frame.put_raw(magic_);
  frame.put_u32(static_cast<std::uint32_t>(payload.size()));
  frame.put_raw(payload);
  frame.put_u32(crc32c(0, std::string_view(frame.str()).substr(4)));

  const util::MutexLock lock(mutex_);
  const std::string& bytes = frame.str();
  if (::pwrite(fd_, bytes.data(), bytes.size(), static_cast<off_t>(end_)) !=
      static_cast<ssize_t>(bytes.size())) {
    return std::nullopt;
  }
  const Frame placed{end_ + kHeaderBytes,
                     static_cast<std::uint32_t>(payload.size())};
  end_ += bytes.size();
  FR_CRASH_POINT(crash_site_);
  if (durability_ == Durability::kFsync && ::fdatasync(fd_) != 0) {
    return std::nullopt;
  }
  return placed;
}

std::optional<std::string> RecordLog::read(const Frame& frame) const {
  return read_frame(fd_, magic_, frame.offset - kHeaderBytes,
                    frame.offset + frame.size + 4);
}

}  // namespace flashroute::io
