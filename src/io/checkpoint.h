// Checkpoint/resume persistence for an in-progress scan (DESIGN.md §9).
//
// A checkpoint is taken at a main-phase round barrier after the engine has
// quiesced (retransmission wheel drained, responses idled out), so the
// captured state has no in-flight probes.  The "FRCK" container, written
// and read through io/codec.h, holds what FRSC does not carry — the
// virtual-time cursor needed to resume the timeline exactly where it
// stopped, the engine's per-destination control state, the probe log and
// the resilience counters — and ends with the partial core::ScanResult as
// one FRSC archive: checkpoints reuse the frozen v1 result encoding rather
// than inventing a second one, and the reader decodes it in place into the
// same result.
//
// Resume contract (core::Tracer): restoring a checkpoint and finishing the
// scan produces merged results identical to the same scan never having been
// interrupted, fault schedules included — the fault plane draws on virtual
// send times, which the restored clock continues without a gap.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "io/codec.h"
#include "io/scan_archive.h"
#include "util/clock.h"

namespace flashroute::io {

/// Everything needed to resume a scan mid-sweep.  The per-DCB vectors are
/// indexed by prefix offset and have one entry per destination.
struct ScanCheckpoint {
  ArchiveHeader header;

  /// Digest of the resume-relevant TracerConfig fields; a checkpoint only
  /// resumes into a tracer configured identically (checked by the caller).
  std::uint64_t config_digest = 0;

  /// Virtual time of the runtime when the checkpoint was taken; the resumed
  /// runtime starts its clock here so rate limiters, fault draws, and epoch
  /// boundaries continue the uninterrupted timeline.
  util::Nanos virtual_now = 0;
  /// Scan time accumulated before the checkpoint (added to the resumed
  /// run's own elapsed time when reporting ScanResult::scan_time).
  util::Nanos scan_elapsed = 0;

  /// Main-phase rounds completed before the checkpoint.
  std::uint64_t rounds_completed = 0;
  /// Adaptive-backoff level in effect (0 = full configured rate).
  std::uint32_t backoff_level = 0;
  /// Ring cursor (prefix offset) at the barrier, or DcbArray::kNone when
  /// the ring had emptied.  The head drifts from the permutation start as
  /// destinations retire, so the rebuilt ring must be re-pointed at it.
  std::uint32_t ring_head = 0;

  // Per-DCB engine state (empty vectors = checkpoint of a finished scan).
  std::vector<std::uint8_t> next_backward;
  std::vector<std::uint8_t> next_forward;
  std::vector<std::uint8_t> forward_horizon;
  std::vector<std::uint8_t> dcb_flags;
  std::vector<std::uint8_t> retransmit_left;

  /// Results accumulated so far (interfaces, routes, counters, probe log).
  core::ScanResult result;
};

/// Appends a checkpoint ("FRCK" magic, format version 1) to `out`.
void write_checkpoint(const ScanCheckpoint& checkpoint, Writer& out);

/// Reads `bytes` holding exactly one checkpoint; nullopt on a bad magic,
/// an unsupported version, or truncated or corrupt input.
std::optional<ScanCheckpoint> read_checkpoint(std::string_view bytes);

// --- atomic file publish (DESIGN.md §14.3) -----------------------------------
//
// A checkpoint written straight into its destination path can be torn by a
// crash mid-write, poisoning --resume-from and daemon recovery.  The
// atomic variant writes the write_checkpoint bytes as one io::RecordLog
// frame ("FRCK" magic, CRC32C) to `<path>.tmp`, then rename(2)s it into
// place: readers only ever observe the old complete file or the new
// complete file, never a prefix.  The loader verifies that frame, so a
// file damaged on disk fails to load instead of resuming from altered
// state.
//
// `sync` adds an fdatasync before the rename.  Rename atomicity alone
// already covers process death (the pages live in the kernel either way);
// the sync only buys power-loss ordering, so callers running at journal
// durability below fsync pass false and skip the per-barrier stall.

/// Atomically publishes one checkpoint to `path`; false on I/O error.
bool save_checkpoint_atomic(const std::string& path,
                            const ScanCheckpoint& checkpoint,
                            bool sync = true);

/// Loads one checkpoint from `path`; nullopt when absent or corrupt.
std::optional<ScanCheckpoint> load_checkpoint_file(const std::string& path);

/// Creates `path` as a directory if absent; true when it exists after.
bool ensure_directory(const std::string& path);

/// True when `a` and `b` both exist and name the same file (same device
/// and inode, so through any link or spelling of the path).
bool same_file(const std::string& a, const std::string& b);

/// Removes a published checkpoint; true when the file is gone after
/// (including when it never existed).
bool discard_checkpoint(const std::string& path);

}  // namespace flashroute::io
