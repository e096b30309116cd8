// JobRunner: one scan job's execution state across scheduler slices
// (DESIGN.md §12).
//
// A slice is a span of scan execution between scheduler decisions.  The
// job's first slice builds its engine: the simulated topology, a
// SimNetwork and SimScanRuntime over it, and the Tracer with its DCB ring
// and result.  The runner keeps that engine until the job ends.  At every
// checkpoint barrier the runner asks the scheduler's verdict; a preempting
// one pauses the Tracer where it stands, and the job's next slice, on
// whichever worker picks it up, continues it.  So a resumed slice rebuilds
// nothing, restores nothing and copies nothing.  The daemon frees the
// runner, engine and topology with it, when the job turns terminal.
//
// A checkpoint reaches a runner only from disk: frd's boot recovery hands
// over the job's last published barrier, and the slice that runs it builds
// a fresh engine on the checkpoint's clock and restores the scan from it.
//
// Determinism: the spec fixes checkpoint_interval > 0, so the engine
// quiesces at every barrier whether or not the slice ends there (the
// equivalence contract of DESIGN.md §9).  A paused and continued scan is
// the uninterrupted scan, on the same objects and clock, and a scan
// restored from a barrier's checkpoint reproduces it too.  A job preempted
// N times therefore produces a ScanResult byte-identical (in FRSC archive
// form) to the same spec run uncontended — the property the daemon bench
// gates.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/result.h"
#include "io/checkpoint.h"
#include "io/scan_archive.h"
#include "svc/scan_spec.h"
#include "svc/scheduler.h"

namespace flashroute::svc {

enum class SliceOutcome : std::uint8_t {
  kCompleted,  ///< the scan finished; SliceResult::result is valid
  kPreempted,  ///< paused at a barrier; the next slice continues it
  kCancelled,  ///< stopped for good; the job is dead
};

struct SliceResult {
  SliceOutcome outcome = SliceOutcome::kCancelled;
  /// Cumulative probes sent across all of the job's slices so far.
  std::uint64_t probes_total = 0;
  core::ScanResult result;  ///< kCompleted only
};

class JobRunner {
 public:
  /// `recovered` is the job's barrier checkpoint read back from disk, if
  /// any; the job's first slice restores the scan from it.
  explicit JobRunner(
      const ScanSpec& spec,
      std::optional<io::ScanCheckpoint> recovered = std::nullopt);
  ~JobRunner();

  /// Runs one slice.  A checkpoint in `recovered` (or the one given to the
  /// constructor) builds a fresh engine on its clock and restores the scan
  /// from it; otherwise a paused engine continues; otherwise a fresh scan
  /// starts.  `on_barrier` is consulted at every checkpoint barrier with
  /// the engine's checkpoint: kPreempt pauses the engine for the next
  /// slice, kCancel ends the job and frees the engine.
  SliceResult run_slice(
      std::optional<io::ScanCheckpoint> recovered,
      const std::function<BarrierDecision(const io::ScanCheckpoint&)>&
          on_barrier);

  /// Probes the job has sent when its next slice continues a paused engine
  /// or restores a recovered checkpoint; nullopt when it starts afresh.
  std::optional<std::uint64_t> resume_probes() const;

  /// Asynchronous hard cancel: the engine aborts at its next round barrier
  /// (finer-grained than checkpoint barriers), yielding kCancelled.
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }

  /// Archive metadata for this job's results.
  io::ArchiveHeader archive_header() const { return svc::archive_header(spec_); }

 private:
  struct Engine;

  /// A new engine whose runtime clock starts at `start`.
  std::unique_ptr<Engine> build_engine(util::Nanos start);

  ScanSpec spec_;
  /// The spec's world and engine config, built by the first slice (the
  /// topology with it) and retained across slices.
  std::unique_ptr<ScanSetup> setup_;
  std::optional<io::ScanCheckpoint> recovered_;
  /// Built by the slice that starts or restores the scan, kept while the
  /// job is paused, freed when the scan ends.
  std::unique_ptr<Engine> engine_;
  /// The running slice's barrier callback, and the verdict it last gave.
  const std::function<BarrierDecision(const io::ScanCheckpoint&)>*
      on_barrier_ = nullptr;
  BarrierDecision decision_ = BarrierDecision::kContinue;
  // fr-atomic: cancel flag — set by the daemon's control plane, polled
  // (relaxed) by whichever worker is running the job's current slice.
  std::atomic<bool> cancel_{false};
};

}  // namespace flashroute::svc
