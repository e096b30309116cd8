#include "svc/job_runner.h"

#include <utility>

#include "core/tracer.h"
#include "sim/network.h"
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

/// What a paused job keeps between slices: the simulator its scan runs
/// on, the Tracer, and the result the Tracer handed out when it paused.
struct JobRunner::Engine {
  Engine(const sim::Topology& topology, const core::TracerConfig& config,
         util::Nanos start)
      : network(topology),
        runtime(network, config.probes_per_second, start),
        tracer(config, runtime) {}
  // The runtime holds the network and the Tracer the runtime by address.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  sim::SimNetwork network;
  sim::SimScanRuntime runtime;
  core::Tracer tracer;
  core::ScanResult paused;
};

JobRunner::JobRunner(const JobSpec& spec,
                     std::optional<io::ScanCheckpoint> recovered)
    : spec_(spec), recovered_(std::move(recovered)) {}

JobRunner::~JobRunner() = default;

const sim::Topology& JobRunner::topology() {
  if (topology_ == nullptr) {
    topology_ = std::make_unique<sim::Topology>(sim_params_for(spec_));
  }
  return *topology_;
}

std::unique_ptr<JobRunner::Engine> JobRunner::build_engine(util::Nanos start) {
  core::TracerConfig config = tracer_config_for(spec_);
  config.cancel = &cancel_;
  // Preempt and cancel both stop the scan and leave the checkpoint intact,
  // so the Tracer pauses with its result in place; run_slice tells the
  // two apart by the verdict.
  config.checkpoint_sink = [this](io::ScanCheckpoint& checkpoint) {
    decision_ = (*on_barrier_)(checkpoint);
    return decision_ == BarrierDecision::kContinue;
  };
  return std::make_unique<Engine>(topology(), config, start);
}

io::ArchiveHeader JobRunner::archive_header() const {
  io::ArchiveHeader header;
  header.first_prefix = spec_.first_prefix;
  header.prefix_bits = spec_.prefix_bits;
  header.seed = spec_.scan_seed;
  return header;
}

std::optional<std::uint64_t> JobRunner::resume_probes() const {
  if (recovered_.has_value()) return recovered_->result.probes_sent;
  if (engine_ != nullptr) return engine_->paused.probes_sent;
  return std::nullopt;
}

SliceResult JobRunner::run_slice(
    std::optional<io::ScanCheckpoint> recovered,
    const std::function<BarrierDecision(const io::ScanCheckpoint&)>&
        on_barrier) {
  if (!recovered.has_value()) recovered = std::exchange(recovered_, {});
  on_barrier_ = &on_barrier;
  decision_ = BarrierDecision::kContinue;
  core::ScanResult result;
  if (recovered.has_value()) {
    engine_ = build_engine(recovered->virtual_now);
    result = engine_->tracer.run(std::move(recovered));
  } else if (engine_ != nullptr) {
    result = engine_->tracer.continue_run(std::move(engine_->paused));
  } else {
    engine_ = build_engine(0);
    result = engine_->tracer.run();
  }
  on_barrier_ = nullptr;

  SliceResult slice;
  slice.probes_total = result.probes_sent;
  const bool stopped = engine_->tracer.aborted();
  if (stopped && decision_ == BarrierDecision::kPreempt) {
    slice.outcome = SliceOutcome::kPreempted;
    engine_->paused = std::move(result);
    return slice;
  }
  engine_.reset();
  if (stopped) {
    slice.outcome = SliceOutcome::kCancelled;
  } else {
    slice.outcome = SliceOutcome::kCompleted;
    slice.result = std::move(result);
  }
  return slice;
}

}  // namespace flashroute::svc
