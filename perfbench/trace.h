// Benchmark-side tracing: spans around calls into the program's public API.
//
// Nothing here reaches into src/: spans are recorded at the boundaries the
// benchmark itself calls (ScanRuntime virtuals, the response Sink, Tracer::run,
// svc::Client RPCs).  A 2^22 scan makes tens of millions of runtime calls, so
// the recorder keeps per-boundary aggregates (count, units of work, total
// nanoseconds, log2 duration histogram) and a bounded systematic sample of raw
// spans instead of one record per call.

#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/runtime.h"

namespace frbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every boundary a span or count is recorded at.
enum Boundary : int {
  kNone = -1,
  // ScanRuntime virtuals, in declaration order.
  kNow,
  kTrySend,
  kTrySendBatch,
  kDrainBatch,
  kBatchBudget,
  kSendTimeOf,
  kSetRate,
  kDrain,
  kIdleUntil,
  kPacketsDropped,
  // The engine's response handler, called from inside drain/idle_until.
  kSink,
  // The whole scan.
  kTracerRun,
  // svc::Client RPCs.
  kSubmit,
  kStatus,
  kDiff,
  kVerify,
  kBoundaryCount,
};

inline const char* boundary_name(int b) {
  static constexpr std::array<const char*, kBoundaryCount> kNames = {
      "runtime.now",         "runtime.try_send",     "runtime.try_send_batch",
      "runtime.drain_batch", "runtime.batch_budget", "runtime.send_time_of",
      "runtime.set_rate",    "runtime.drain",        "runtime.idle_until",
      "runtime.packets_dropped", "core.sink",        "core.tracer_run",
      "client.submit",       "client.status",        "client.diff",
      "client.verify"};
  return b >= 0 && b < kBoundaryCount ? kNames[static_cast<std::size_t>(b)]
                                      : "none";
}

struct Aggregate {
  std::uint64_t count = 0;     ///< calls
  std::uint64_t units = 0;     ///< work items (probes, responses, ...)
  std::int64_t total_ns = 0;   ///< summed span durations (0 if count-only)
  /// log2 duration histogram: bucket b holds spans of [2^(b-1), 2^b) ns.
  std::array<std::uint64_t, 48> log2_ns{};
};

struct SpanSample {
  int boundary = kNone;
  int parent = kNone;  ///< enclosing boundary (the Sink's drain/idle call)
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint64_t units = 0;
};

class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSamples = 4096;

  /// Counts a call without timing it.
  void count(int b) noexcept { ++agg_[static_cast<std::size_t>(b)].count; }

  void record(int b, int parent, std::int64_t start, std::int64_t duration,
              std::uint64_t units) {
    Aggregate& a = agg_[static_cast<std::size_t>(b)];
    ++a.count;
    a.units += units;
    a.total_ns += duration;
    const auto bucket = static_cast<std::size_t>(std::bit_width(
        static_cast<std::uint64_t>(duration > 0 ? duration : 0)));
    ++a.log2_ns[bucket < a.log2_ns.size() ? bucket : a.log2_ns.size() - 1];
    // Systematic sample: keep every stride-th span; when the buffer fills,
    // thin it to every other entry and double the stride.
    if (--countdown_ > 0) return;
    countdown_ = stride_;
    if (samples_.size() == kMaxSamples) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < samples_.size(); i += 2) {
        samples_[kept++] = samples_[i];
      }
      samples_.resize(kept);
      stride_ *= 2;
      countdown_ = stride_;
    }
    samples_.push_back({b, parent, start, duration, units});
  }

  const Aggregate& operator[](int b) const noexcept {
    return agg_[static_cast<std::size_t>(b)];
  }
  const std::vector<SpanSample>& samples() const noexcept { return samples_; }

 private:
  std::array<Aggregate, kBoundaryCount> agg_{};
  std::vector<SpanSample> samples_;
  std::uint64_t stride_ = 1;     ///< spans per kept sample
  std::uint64_t countdown_ = 1;  ///< spans until the next kept sample
};

/// Records one span around `f()` at boundary `b`.
template <typename F>
auto timed(SpanRecorder& spans, int b, std::uint64_t units, F&& f) {
  const std::int64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    spans.record(b, kNone, start, now_ns() - start, units);
  } else {
    auto value = f();
    spans.record(b, kNone, start, now_ns() - start, units);
    return value;
  }
}

/// ScanRuntime decorator: forwards every virtual to the wrapped runtime and
/// records a span per call.  The per-probe accessors (now, send_time_of,
/// packets_dropped) are counted but not timed — they cost less than the two
/// clock reads a span needs.  The engine's Sink is wrapped too, so the time
/// a drain spends delivering (sim) and the time the engine spends handling
/// the responses (core) come apart.
class TimedRuntime final : public flashroute::core::ScanRuntime {
 public:
  TimedRuntime(flashroute::core::ScanRuntime& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}
  TimedRuntime(const TimedRuntime&) = delete;
  TimedRuntime& operator=(const TimedRuntime&) = delete;

  flashroute::util::Nanos now() const noexcept override {
    spans_.count(kNow);
    return inner_.now();
  }

  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
    return timed(spans_, kTrySend, 1, [&] { return inner_.try_send(packet); });
  }

  [[nodiscard]] std::uint64_t try_send_batch(
      const flashroute::core::ProbeBatch& batch) override {
    return timed(spans_, kTrySendBatch, batch.count(),
                 [&] { return inner_.try_send_batch(batch); });
  }

  void drain_batch(const Sink& sink) override {
    deliver(kDrainBatch, sink, [&](const Sink& s) { inner_.drain_batch(s); });
  }

  std::uint32_t batch_budget() const noexcept override {
    return timed(spans_, kBatchBudget, 0,
                 [&] { return inner_.batch_budget(); });
  }

  flashroute::util::Nanos send_time_of(
      std::uint32_t k) const noexcept override {
    spans_.count(kSendTimeOf);
    return inner_.send_time_of(k);
  }

  void set_rate(double probes_per_second) override {
    timed(spans_, kSetRate, 0, [&] { inner_.set_rate(probes_per_second); });
  }

  void drain(const Sink& sink) override {
    deliver(kDrain, sink, [&](const Sink& s) { inner_.drain(s); });
  }

  void idle_until(flashroute::util::Nanos t, const Sink& sink) override {
    deliver(kIdleUntil, sink, [&](const Sink& s) { inner_.idle_until(t, s); });
  }

  std::uint64_t packets_dropped() const noexcept override {
    spans_.count(kPacketsDropped);
    return inner_.packets_dropped();
  }

 private:
  /// Times one delivering call; units = responses it handed to the Sink.
  template <typename F>
  void deliver(int b, const Sink& sink, F&& call) {
    const std::uint64_t before = spans_[kSink].count;
    outer_sink_ = &sink;
    parent_ = b;
    const std::int64_t start = now_ns();
    call(timed_sink_);
    const std::int64_t duration = now_ns() - start;
    outer_sink_ = nullptr;
    spans_.record(b, kNone, start, duration, spans_[kSink].count - before);
  }

  flashroute::core::ScanRuntime& inner_;
  SpanRecorder& spans_;
  const Sink* outer_sink_ = nullptr;
  int parent_ = kNone;
  /// Built once: forwards to the engine's sink of the call in progress.
  Sink timed_sink_ = [this](std::span<const std::byte> packet,
                            flashroute::util::Nanos arrival) {
    const std::int64_t start = now_ns();
    (*outer_sink_)(packet, arrival);
    spans_.record(kSink, parent_, start, now_ns() - start, 1);
  };
};

}  // namespace frbench
