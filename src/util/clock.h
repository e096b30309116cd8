// Time abstraction separating probing logic from wall-clock time.
//
// The paper's evaluation reports scan durations of 17 minutes to 3.5 hours
// at 100 Kpps.  Re-running those scans in real time is neither possible in
// this environment nor necessary: the reported scan time is exactly
// (#probes / probing rate) plus the round-barrier stalls at the tail of a
// scan (§3.2).  All probing engines in this repository are therefore written
// against the `Clock` interface below.  `SimClock` is advanced by the
// virtual-time runner (10 µs per probe at 100 Kpps); `MonotonicClock` backs
// the real-time runtimes (core/threaded_runtime.h).

#pragma once

#include <chrono>
#include <cstdint>

#include "util/annotations.h"

namespace flashroute::util {

/// Nanoseconds since an arbitrary epoch.  Signed so intervals can be
/// subtracted freely.
using Nanos = std::int64_t;

constexpr Nanos kMicrosecond = 1'000;
constexpr Nanos kMillisecond = 1'000'000;
constexpr Nanos kSecond = 1'000'000'000;

class Clock {
 public:
  virtual ~Clock() = default;
  FR_HOT virtual Nanos now() const noexcept = 0;
};

/// Virtual clock advanced explicitly by the simulation runner.
class SimClock final : public Clock {
 public:
  explicit SimClock(Nanos start = 0) noexcept : now_(start) {}

  FR_HOT Nanos now() const noexcept override { return now_; }
  FR_HOT void advance(Nanos delta) noexcept { now_ += delta; }

  /// Moves the clock forward to `t`; never moves it backwards.
  FR_HOT void advance_to(Nanos t) noexcept {
    if (t > now_) now_ = t;
  }

 private:
  Nanos now_;
};

/// Real monotonic clock (std::chrono::steady_clock).
class MonotonicClock final : public Clock {
 public:
  // fr-lint: allow(det-wallclock): the one sanctioned wall-clock read — every
  // engine sees time only through the Clock interface.
  FR_HOT Nanos now() const noexcept override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace flashroute::util
