// One append-only log of CRC-checked frames (DESIGN.md §14.1).
//
// Every record the daemon persists is one frame:
//
//   magic(4)  u32 LE payload size  payload  u32 LE CRC32C(size, payload)
//
// with a per-file magic: "FRWJ" for the job journal, "FRSJ" for the job
// archive, "FRCK" for a checkpoint file and "FRSA" for a scan archive file
// (each of the last two holds exactly one frame).  The CRC
// covers the size field too, so a flipped length is caught like a flipped
// payload byte.
//
// Opening a RecordLog is recovery.  The walk keeps every frame that
// verifies and classifies everything else:
//
//  * bytes after the last verifying frame are a torn tail — a crash
//    mid-append — and are cut in place with ftruncate;
//  * a damaged span followed by a verifying frame is corruption, not a
//    tail: it is skipped and counted, and its bytes stay in the file;
//  * a non-empty file in which no frame verifies is a torn first append
//    only when it is a strict prefix of one frame: it begins with (a
//    prefix of) the magic and is shorter than the frame its header
//    declares.  Anything else — another log, an older format, a whole
//    frame damaged in place — is not this log's to cut: open fails and
//    leaves the file untouched.
//
// Recovery never rewrites a file.  The walk streams through a bounded
// buffer, so a log of full-universe payloads (tens of MB each) opens in
// the same memory as a log of small ones.
//
// Appends write the whole frame with one pwrite(2) under the log's lock,
// then apply the Durability.  Reads are lock-free (frames are immutable
// once written) and verify the frame's CRC again.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "util/annotations.h"
#include "util/sync.h"

namespace flashroute::io {

/// How hard an append pushes its frame toward stable storage.
///
///   kFlush  the frame reaches the kernel in one pwrite(2) before append
///           returns — survives process death
///   kFsync  plus fdatasync — survives OS or power loss
enum class Durability : std::uint8_t { kFlush, kFsync };

/// Parses "flush" | "fsync" (the --durability= CLI values).
std::optional<Durability> parse_durability(std::string_view name);

/// CRC-32C (Castagnoli), continuing from `crc` (0 starts a new checksum).
std::uint32_t crc32c(std::uint32_t crc, std::string_view bytes);

/// The payload of the file at `path` when the whole file is one verifying
/// frame under `magic`; nullopt when it is absent, damaged or foreign.
std::optional<std::string> read_frame_file(const std::string& path,
                                           std::string_view magic);

/// Publishes `payload` as a file at `path` that read_frame_file reads back:
/// one frame under `magic`, written to `<path>.tmp` (plus fdatasync when
/// `sync`), then renamed over `path`, so a reader sees the old file or the
/// new one, never a prefix.  The crash point checkpoint.publish fires
/// between the write and the rename.  False when any step fails; the temp
/// file is then removed and `path` is left as it was.
bool publish_frame_atomic(const std::string& path, std::string_view magic,
                          std::string_view payload, bool sync);

class RecordLog {
 public:
  /// Where a verified frame's payload sits in the file.
  struct Frame {
    std::uint64_t offset = 0;  ///< file offset of the payload's first byte
    std::uint32_t size = 0;    ///< payload bytes
  };

  /// Called once per verifying frame at open, in file order, with the
  /// frame's first `peek` payload bytes (all of them when it is shorter).
  using Visitor =
      std::function<void(const Frame& frame, std::string_view head)>;

  /// Opens (creating if absent) and recovers `path`.  `magic` is 4 bytes;
  /// `crash_site` is the FR_CRASH_POINT armed between an append's write
  /// and its durability step.
  RecordLog(const std::string& path, std::string_view magic,
            Durability durability, const char* crash_site, std::size_t peek,
            const Visitor& visit);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// False when the file could not be opened, is foreign, or could not be
  /// cut back to its last verifying frame.
  bool ok() const noexcept { return ok_; }

  /// Torn-tail bytes cut at open (0 = the file ended on a frame).
  std::uint64_t torn_bytes() const noexcept { return torn_; }

  /// Damaged bytes skipped at open; they are still in the file.
  std::uint64_t corrupt_bytes() const noexcept { return corrupt_; }

  /// Appends one frame; where its payload landed, or nullopt on I/O error
  /// (or when the log is not ok()).
  std::optional<Frame> append(std::string_view payload) FR_EXCLUDES(mutex_);

  /// The payload of a frame the walk or append() reported; nullopt when
  /// its bytes no longer verify.
  std::optional<std::string> read(const Frame& frame) const;

 private:
  const std::string magic_;
  const Durability durability_;
  const char* const crash_site_;
  const int fd_;
  // fr-lint: allow(guarded-member): recovery results, frozen after the ctor
  bool ok_ = false;
  // fr-lint: allow(guarded-member): recovery results, frozen after the ctor
  std::uint64_t torn_ = 0;
  // fr-lint: allow(guarded-member): recovery results, frozen after the ctor
  std::uint64_t corrupt_ = 0;
  mutable util::Mutex mutex_;
  std::uint64_t end_ FR_GUARDED_BY(mutex_) = 0;
};

}  // namespace flashroute::io
