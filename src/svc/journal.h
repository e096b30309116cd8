// Write-ahead job journal: the daemon's durable control-plane log
// (DESIGN.md §14).
//
// Every job-state transition the daemon must not forget across a crash is
// appended here *before* the effect becomes externally visible (the reply
// to the client, the terminal event): admitted / rejected / started /
// barrier-reached / completed / cancelled / failed.  On boot the daemon
// replays the journal against the archive and on-disk checkpoints to
// rebuild the scheduler: queued jobs are re-admitted, interrupted jobs
// resume from their last published barrier, and terminal jobs stay
// terminal (no archive payload is ever appended twice).
//
// The file is an io::RecordLog under the kJournalMagic magic; each frame's
// payload is one record in io/codec.h values: kind, job id, the spec as
// svc::wire's encode_spec writes it (admitted and rejected records only),
// reason, detail and counters.  Opening is the log's recovery: every frame
// whose CRC verifies is decoded, a torn tail (a crash mid-append) is cut,
// and a damaged frame mid-file costs only itself.  A file that is not a
// journal of this format — an archive passed as --journal, a journal
// written before frames carried a CRC, or an "FRWJ" journal, whose records
// all carry the spec layout from before ScanSpec — fails ok() and is left
// untouched.
//
// Durability (io::Durability) is configurable per daemon: flush hands
// each record to the kernel — surviving process death — and fsync adds
// fdatasync, surviving OS or power loss.
//
// The records recovered at open are handed to the daemon's boot recovery
// once, by move (take_records), so a running daemon holds none of them.
//
// append() is thread-safe: it serializes under the log's lock.
// take_records() is for the one thread that boots the daemon.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/record_log.h"
#include "svc/job.h"

namespace flashroute::svc {

using io::Durability;

/// The journal's frame magic.  It names the record layout: a new spec
/// layout (svc/wire.h) takes a new magic, so a journal is never decoded
/// with a layout it was not written in.  "FRWJ" was the layout before.
inline constexpr char kJournalMagic[] = "FRJ2";

/// Journal record kinds, in rough lifecycle order.
enum class JournalKind : std::uint8_t {
  kAdmitted = 1,  ///< job accepted; spec + request key are authoritative
  kRejected = 2,  ///< admission refused; reason/detail carried for replay
  kStarted = 3,   ///< dispatched to a worker (appended once per slice)
  kBarrier = 4,   ///< checkpoint barrier published (checkpoint file on disk)
  kCompleted = 5, ///< archive payload appended (archive is authoritative)
  kCancelled = 6,
  kFailed = 7,
};

/// One journal entry.  Only kAdmitted/kRejected records carry `spec` (the
/// admission records are the durable source of the spec — including the
/// request key — for replay); the rest carry counters and reasons, and
/// decode with a default spec.
struct JournalRecord {
  JournalKind kind = JournalKind::kAdmitted;
  std::uint64_t job_id = 0;
  JobSpec spec;
  std::string reason;
  std::string detail;
  std::uint64_t probes = 0;
  std::uint64_t slices = 0;
};

/// Append-only journal file: an io::RecordLog of JournalRecords.
class JobJournal {
 public:
  /// Opens (creating if absent) and recovers `path`.
  JobJournal(const std::string& path, Durability durability);

  /// False when the file could not be opened, created, or recovered, or
  /// is not a journal.
  bool ok() const noexcept { return log_.ok(); }

  /// Torn-tail bytes cut at open (0 = the file ended on a frame).
  std::uint64_t torn_bytes() const noexcept { return log_.torn_bytes(); }

  /// Damaged bytes skipped mid-file at open; they stay in the file.
  std::uint64_t corrupt_bytes() const noexcept { return log_.corrupt_bytes(); }

  /// The records recovered at open, in file order, handed over once: a
  /// second call returns none, and append() never adds to them.
  std::vector<JournalRecord> take_records() noexcept {
    return std::exchange(records_, {});
  }

  /// Appends one record per the durability mode; false on I/O error.
  bool append(const JournalRecord& record);

 private:
  // Filled by log_'s open walk, so declared before it.
  std::vector<JournalRecord> records_;
  io::RecordLog log_;
};

}  // namespace flashroute::svc
