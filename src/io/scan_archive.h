// Scan result persistence.
//
// The paper publishes the data collected in its study; a usable tool needs
// durable scan outputs.  Three formats:
//
//  * text  — human-readable per-target route listings (traceroute-style);
//  * csv   — one row per discovered hop, for spreadsheet/pandas analysis;
//  * a versioned binary archive ("FRSC" magic), carrying everything in
//    core::ScanResult that a later analysis reads (routes, distances,
//    counters) so a scan can be analysed without re-running it.  It is
//    written and read through io/codec.h: the magic, then varints (the
//    header, the counters, the sorted interfaces as deltas), the four
//    per-prefix byte vectors as length-prefixed strings, and the routes
//    (a route count, then per route a hop count and each hop as a varint
//    address, a TTL byte and a flags byte).  write_archive/read_archive
//    round-trip exactly; on disk it sits inside a CRC-checked frame.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "io/codec.h"
#include "io/record_log.h"
#include "util/annotations.h"
#include "util/sync.h"

namespace flashroute::io {

/// Universe metadata stored alongside the results.
struct ArchiveHeader {
  std::uint32_t first_prefix = 0;
  int prefix_bits = 0;
  std::uint64_t seed = 0;
};

/// Maps a prefix offset to the address that was probed (the engine's
/// target_of); used by the text/CSV writers to label routes.
using TargetResolver = std::function<std::uint32_t(std::uint32_t)>;

/// Human-readable route listing: one block per target with any recorded
/// hops, TTL-sorted, flagged with [dest]/[preprobe]/[extra].
void write_routes_text(const core::ScanResult& result,
                       const TargetResolver& target_of,
                       std::uint32_t first_prefix, std::ostream& out);

/// CSV: header row then `prefix,target,ttl,hop,kind` per recorded hop,
/// kind in {hop, dest, preprobe, extra}.
void write_routes_csv(const core::ScanResult& result,
                      const TargetResolver& target_of,
                      std::uint32_t first_prefix, std::ostream& out);

/// Appends the binary archive (format version 1) of `result` to `out`.
/// The resilience counters and the probe log are not stored (FRCK
/// checkpoints carry them).
void write_archive(const core::ScanResult& result,
                   const ArchiveHeader& header, Writer& out);

/// Reads one archive from `in` into `header` and the fields of `result`
/// that write_archive stores; false on a bad magic, an unsupported
/// version, or truncated or corrupt input (`in` then fails too).
bool read_archive(Reader& in, ArchiveHeader& header, core::ScanResult& result);

struct LoadedArchive {
  ArchiveHeader header;
  core::ScanResult result;
};

/// Reads `bytes` holding exactly one archive; nullopt when read_archive
/// fails or bytes follow the archive.
std::optional<LoadedArchive> read_archive(std::string_view bytes);

/// Archive file (flashroute_cli --archive): the write_archive bytes as the
/// one CRC-checked frame of a file under the "FRSA" magic, fdatasync'd and
/// renamed into place by io::publish_frame_atomic.  False when any step
/// fails; `path` is then left as it was.
bool save_archive_file(const std::string& path,
                       const core::ScanResult& result,
                       const ArchiveHeader& header);

/// Reads a file save_archive_file wrote; nullopt when it is missing,
/// damaged or foreign, including a bare FRSC file written before archive
/// files carried a CRC.
std::optional<LoadedArchive> load_archive_file(const std::string& path);

/// Multi-job archive file: many FRSC payloads appended by concurrent scan
/// jobs into one io::RecordLog under the "FRSJ" magic (DESIGN.md §12).
///
/// Each frame's payload is the job id (a put_u64) followed by the (frozen)
/// FRSC v1 bytes.  The log serializes appends, so two jobs finishing at
/// once never interleave; a daemon killed mid-append leaves a torn tail
/// the next open cuts; a payload damaged on disk costs only its own job;
/// a file that is not an archive of this format (a journal, or an archive
/// written before frames carried a CRC) fails ok() and is left untouched.
/// Opening streams the file and keeps only the index, so a reopened
/// archive of full-universe payloads costs no payload memory.
///
/// All methods are thread-safe.
class JobArchive {
 public:
  struct Entry {
    std::uint64_t job_id = 0;
    RecordLog::Frame frame;  ///< the job id + FRSC payload in the file
  };

  /// Opens (creating if absent) and recovers `path`.
  explicit JobArchive(const std::string& path,
                      Durability durability = Durability::kFlush);

  /// False when the file could not be opened, created, or recovered, or
  /// is not an archive.
  bool ok() const noexcept { return log_.ok(); }

  /// Torn-tail bytes cut at open (0 = the file ended on a frame).
  std::uint64_t torn_bytes() const noexcept { return log_.torn_bytes(); }

  /// Damaged bytes skipped mid-file at open; they stay in the file.
  std::uint64_t corrupt_bytes() const noexcept { return log_.corrupt_bytes(); }

  /// Appends one job's result as a framed FRSC record; false on I/O error.
  bool append(std::uint64_t job_id, const core::ScanResult& result,
              const ArchiveHeader& header) FR_EXCLUDES(mutex_);

  /// Snapshot of the record index, in file order.
  std::vector<Entry> index() const FR_EXCLUDES(mutex_);

  /// Loads the latest record for `job_id`; nullopt when absent or corrupt.
  std::optional<LoadedArchive> load(std::uint64_t job_id) const
      FR_EXCLUDES(mutex_);

  /// Raw FRSC payload bytes of the latest record for `job_id` — the
  /// byte-identity currency of the preemption equivalence gates.
  std::optional<std::string> payload_bytes(std::uint64_t job_id) const
      FR_EXCLUDES(mutex_);

 private:
  // Both filled by log_'s open walk, so declared before it.
  mutable util::Mutex mutex_;
  std::vector<Entry> index_ FR_GUARDED_BY(mutex_);
  // fr-lint: allow(guarded-member): RecordLog locks itself
  RecordLog log_;
};

}  // namespace flashroute::io
