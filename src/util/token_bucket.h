// Token-bucket rate limiter.
//
// Used in two places:
//  * per-interface ICMP generation limits in the Internet simulator —
//    Ravaioli et al. found most routers cap ICMP replies at <= 500/s, the
//    bound the paper assumes in its overprobing analysis (§4.2.2).  The
//    simulator keeps one TokenLevel per responder and the rate and burst
//    once (sim::RateLimitTable);
//  * the probing-rate throttle of the real-time (threaded) scan runner.
//
// The bucket is defined in virtual time (util::Nanos), so the same code
// serves both the simulator and the real runner.
//
// A third user, the scan-job scheduler (src/svc/), meters whole probe
// *slices* rather than single events: charge() debits N tokens at once and
// may drive the balance negative (debt), and in_credit() asks whether the
// job has worked off its debt.  try_consume() is unaffected — it still
// requires a full token.

#pragma once

#include <algorithm>
#include <cstdint>

#include "util/annotations.h"
#include "util/clock.h"

namespace flashroute::util {

/// A bucket's level without its rate and burst: what a table of buckets
/// that share one rate and burst keeps per bucket (sim::RateLimitTable
/// holds one per responder, next to its address and drop count).
/// TokenBucket holds one next to its own rate and burst.  Both refill and
/// take tokens only through the members below, so the two make the same
/// double operations in the same order and decide alike.
struct TokenLevel {
  double tokens = 0.0;
  Nanos last = 0;

  /// Accrues `rate` tokens per second since `last`, capped at `burst`; a
  /// `t` not after `last` changes nothing.
  FR_HOT void refill(Nanos t, double rate, double burst) noexcept {
    if (t <= last) return;
    const double elapsed_s =
        static_cast<double>(t - last) / static_cast<double>(kSecond);
    tokens = std::min(burst, tokens + elapsed_s * rate);
    last = t;
  }

  /// Refills to `t`, then takes one token if a whole one is there.
  [[nodiscard]] FR_HOT bool try_consume(Nanos t, double rate,
                                        double burst) noexcept {
    refill(t, rate, burst);
    if (tokens >= 1.0) {
      tokens -= 1.0;
      return true;
    }
    return false;
  }
};

class TokenBucket {
 public:
  /// `rate_per_second` tokens accrue per second up to `burst` capacity.
  /// The bucket starts full at time `start`.
  TokenBucket(double rate_per_second, double burst, Nanos start = 0) noexcept
      : rate_(rate_per_second), burst_(burst), level_{burst, start} {}

  /// Attempts to take one token at time `t`; returns false when the bucket
  /// is empty (the event is rate-limited).  `t` must be non-decreasing
  /// across calls.
  [[nodiscard]] FR_HOT bool try_consume(Nanos t) noexcept {
    return level_.try_consume(t, rate_, burst_);
  }

  /// Tokens currently available at time `t` (also refills).
  double available(Nanos t) noexcept {
    level_.refill(t, rate_, burst_);
    return level_.tokens;
  }

  /// Debits `n` tokens at time `t`, allowing the balance to go negative —
  /// the debt model of the svc per-job rate budgets, where a slice's probe
  /// count is only known after the slice ran.
  FR_HOT void charge(double n, Nanos t) noexcept {
    level_.refill(t, rate_, burst_);
    level_.tokens -= n;
  }

  /// True when the balance is non-negative at `t` (any debt worked off).
  [[nodiscard]] FR_HOT bool in_credit(Nanos t) noexcept {
    level_.refill(t, rate_, burst_);
    return level_.tokens >= 0.0;
  }

  double rate() const noexcept { return rate_; }
  double burst() const noexcept { return burst_; }

  /// Changes the refill rate at time `t` (adaptive backoff).  Tokens
  /// accrued under the old rate are settled first, so the switch is exact:
  /// the bucket behaves as if the rate changed precisely at `t`.
  void set_rate(double rate_per_second, Nanos t) noexcept {
    level_.refill(t, rate_, burst_);
    rate_ = rate_per_second;
  }

 private:
  double rate_;
  double burst_;
  TokenLevel level_;
};

}  // namespace flashroute::util
