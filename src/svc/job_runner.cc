#include "svc/job_runner.h"

#include <utility>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"

namespace flashroute::svc {

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

JobRunner::JobRunner(const ScanSpec& spec,
                     std::optional<io::ScanCheckpoint> recovered)
    : spec_(spec), recovered_(std::move(recovered)) {}

JobRunner::~JobRunner() = default;

std::unique_ptr<JobRunner::Engine> JobRunner::build_engine(util::Nanos start) {
  if (setup_ == nullptr) {
    setup_ = std::make_unique<ScanSetup>(spec_);
    setup_->build_world();
  }
  core::TracerConfig config = setup_->engine;
  config.cancel = &cancel_;
  // Preempt and cancel both stop the scan and leave the checkpoint intact,
  // so the Tracer pauses with its result in place; run_slice tells the
  // two apart by the verdict.
  config.checkpoint_sink = [this](io::ScanCheckpoint& checkpoint) {
    decision_ = (*on_barrier_)(checkpoint);
    return decision_ == BarrierDecision::kContinue;
  };
  return std::make_unique<Engine>(*setup_->topology, config, start);
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
