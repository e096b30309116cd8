// JobRunner: one scan job's execution state across scheduler slices
// (DESIGN.md §12).
//
// A slice is a span of scan execution between scheduler decisions: the
// runner builds a fresh SimNetwork + SimScanRuntime + Tracer per slice
// (resuming from the job's checkpoint when it has one) and runs until the
// engine either finishes or hits a checkpoint barrier at which the
// scheduler's verdict is preempt/cancel.  The expensive part — the
// simulated topology — is built once and retained across slices; the
// daemon frees the runner, topology and all, when the job turns terminal.
// The scan result is never copied between slices: a preempted slice keeps
// it inside its checkpoint, and the next slice moves it back into its
// engine.
//
// Determinism: the spec fixes checkpoint_interval > 0, so the engine
// quiesces at every barrier whether or not the slice ends there (PR 5's
// equivalence contract).  A job preempted N times therefore produces a
// ScanResult byte-identical (in FRSC archive form) to the same spec run
// uncontended — the property the daemon bench gates.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/result.h"
#include "io/checkpoint.h"
#include "io/scan_archive.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "svc/job.h"
#include "svc/scheduler.h"

namespace flashroute::svc {

enum class SliceOutcome : std::uint8_t {
  kCompleted,  ///< the scan finished; SliceResult::result is valid
  kPreempted,  ///< stopped at a barrier; SliceResult::checkpoint is valid
  kCancelled,  ///< stopped without a checkpoint; the job is dead
};

struct SliceResult {
  SliceOutcome outcome = SliceOutcome::kCancelled;
  /// Cumulative probes sent across all of the job's slices so far.
  std::uint64_t probes_total = 0;
  std::optional<io::ScanCheckpoint> checkpoint;  ///< kPreempted only
  core::ScanResult result;                       ///< kCompleted only
};

class JobRunner {
 public:
  explicit JobRunner(const JobSpec& spec);

  /// Runs one slice.  `resume` is the checkpoint a previous slice saved
  /// (nullopt = first slice); the slice consumes it.  `on_barrier` is
  /// consulted at every checkpoint barrier with the engine's checkpoint —
  /// returning kPreempt moves it into the slice's result, kCancel discards
  /// it and kills the job.
  SliceResult run_slice(
      std::optional<io::ScanCheckpoint> resume,
      const std::function<BarrierDecision(const io::ScanCheckpoint&)>&
          on_barrier);

  /// Asynchronous hard cancel: the engine aborts at its next round barrier
  /// (finer-grained than checkpoint barriers), yielding kCancelled.
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }

  /// Archive metadata for this job's results.
  io::ArchiveHeader archive_header() const;

  const JobSpec& spec() const noexcept { return spec_; }

 private:
  const sim::Topology& topology();

  JobSpec spec_;
  std::unique_ptr<sim::Topology> topology_;  ///< lazy; retained across slices
  // fr-atomic: cancel flag — set by the daemon's control plane, polled
  // (relaxed) by whichever worker is running the job's current slice.
  std::atomic<bool> cancel_{false};
};

}  // namespace flashroute::svc
