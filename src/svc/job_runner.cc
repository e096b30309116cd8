#include "svc/job_runner.h"

#include <utility>

#include "core/tracer.h"
#include "sim/params.h"
#include "sim/runtime.h"

namespace flashroute::svc {

namespace {

sim::SimParams sim_params_for(const JobSpec& spec) {
  sim::SimParams params;
  params.seed = spec.topology_seed;
  params.prefix_bits = spec.prefix_bits;
  params.first_prefix = spec.first_prefix;
  return params;
}

core::TracerConfig tracer_config_for(const JobSpec& spec) {
  core::TracerConfig config;
  config.first_prefix = spec.first_prefix;
  config.prefix_bits = spec.prefix_bits;
  config.probes_per_second = spec.probes_per_second;
  config.split_ttl = spec.split_ttl;
  config.max_ttl = spec.max_ttl;
  config.gap_limit = spec.gap_limit;
  config.min_round_duration = spec.min_round_duration;
  config.preprobe = spec.preprobe_random ? core::PreprobeMode::kRandom
                                         : core::PreprobeMode::kNone;
  config.seed = spec.scan_seed;
  config.target_seed = spec.target_seed;
  config.collect_routes = spec.collect_routes;
  config.max_retransmits = spec.max_retransmits;
  config.adaptive_backoff = spec.adaptive_backoff;
  config.checkpoint_interval = spec.checkpoint_interval;
  return config;
}

}  // namespace

JobRunner::JobRunner(const JobSpec& spec) : spec_(spec) {}

const sim::Topology& JobRunner::topology() {
  if (topology_ == nullptr) {
    topology_ = std::make_unique<sim::Topology>(sim_params_for(spec_));
  }
  return *topology_;
}

io::ArchiveHeader JobRunner::archive_header() const {
  io::ArchiveHeader header;
  header.first_prefix = spec_.first_prefix;
  header.prefix_bits = spec_.prefix_bits;
  header.seed = spec_.scan_seed;
  return header;
}

SliceResult JobRunner::run_slice(
    std::optional<io::ScanCheckpoint> resume,
    const std::function<BarrierDecision(const io::ScanCheckpoint&)>&
        on_barrier) {
  sim::SimNetwork network(topology());
  const util::Nanos start =
      resume.has_value() ? resume->virtual_now : util::Nanos{0};
  sim::SimScanRuntime runtime(network, spec_.probes_per_second, start);

  SliceResult slice;
  core::TracerConfig config = tracer_config_for(spec_);
  config.cancel = &cancel_;
  config.checkpoint_sink = [&](io::ScanCheckpoint& checkpoint) {
    switch (on_barrier(checkpoint)) {
      case BarrierDecision::kContinue:
        return true;
      case BarrierDecision::kPreempt:
        // The slice keeps the checkpoint, and the scan's result with it.
        slice.checkpoint = std::move(checkpoint);
        return false;
      case BarrierDecision::kCancel:
        break;
    }
    slice.checkpoint.reset();
    return false;
  };

  core::Tracer tracer(config, runtime);
  core::ScanResult result = tracer.run(std::move(resume));

  if (!tracer.aborted()) {
    slice.outcome = SliceOutcome::kCompleted;
    slice.probes_total = result.probes_sent;
    slice.result = std::move(result);
  } else if (slice.checkpoint.has_value()) {
    slice.outcome = SliceOutcome::kPreempted;
    slice.probes_total = slice.checkpoint->result.probes_sent;
  } else {
    slice.outcome = SliceOutcome::kCancelled;
    slice.probes_total = result.probes_sent;
  }
  return slice;
}

}  // namespace flashroute::svc
