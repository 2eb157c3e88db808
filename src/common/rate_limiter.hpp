// Open-loop pacing primitives.
//
// The paper's harness is open-loop: input arrives at a configured rate even
// when the system becomes unresponsive (e.g. during a migration), which is
// what exposes latency spikes. OpenLoopPacer computes, for a given record
// index, the nanosecond deadline at which that record *should* enter the
// system; callers inject all records whose deadline has passed, never
// slowing down because the system lags.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"

namespace megaphone {

/// Maps record indices to injection deadlines at a fixed records/second rate.
class OpenLoopPacer {
 public:
  /// `rate` is records per second; `start_nanos` the experiment origin.
  OpenLoopPacer(double rate, uint64_t start_nanos)
      : nanos_per_record_(1e9 / rate), start_nanos_(start_nanos) {
    MEGA_CHECK_GT(rate, 0.0);
  }

  /// Deadline for record `i` (0-based).
  uint64_t DeadlineFor(uint64_t i) const {
    return start_nanos_ +
           static_cast<uint64_t>(nanos_per_record_ * static_cast<double>(i));
  }

  /// Number of records that should have been injected by wall time `now`.
  /// Record 0's deadline is `start_nanos_` itself, so at `now == start`
  /// exactly one record is already due.
  uint64_t RecordsDueBy(uint64_t now) const {
    if (now < start_nanos_) return 0;
    return static_cast<uint64_t>(static_cast<double>(now - start_nanos_) /
                                 nanos_per_record_) +
           1;
  }

  uint64_t start_nanos() const { return start_nanos_; }

 private:
  double nanos_per_record_;
  uint64_t start_nanos_;
};

/// Token-bucket byte throttle used to model network bandwidth on the state
/// channel (see DESIGN.md, Fig. 20 substitution). Single-producer use.
class ByteThrottle {
 public:
  /// `bytes_per_sec == 0` disables throttling.
  explicit ByteThrottle(uint64_t bytes_per_sec)
      : bytes_per_sec_(bytes_per_sec) {}

  /// Returns true if `n` bytes may be sent at time `now_nanos`; on success
  /// the tokens are consumed. The bucket starts full with one second of
  /// credit, so a burst up to `bytes_per_sec` passes immediately. Credit
  /// caps at one second, except while a larger send waits: then it builds
  /// up to `n`, so an oversized send waits `n / bytes_per_sec` seconds
  /// from an empty bucket, like any other send, and never leaves a debt.
  bool Admit(uint64_t n, uint64_t now_nanos) {
    if (bytes_per_sec_ == 0) return true;
    Refill(now_nanos, std::max(bytes_per_sec_, n));
    if (tokens_ < static_cast<double>(n)) return false;
    tokens_ -= static_cast<double>(n);
    return true;
  }

  uint64_t bytes_per_sec() const { return bytes_per_sec_; }

 private:
  void Refill(uint64_t now_nanos, uint64_t cap) {
    // `primed_` (not a timestamp sentinel) marks the first refill: clocks
    // may legitimately start at 0, so `last_nanos_ == 0` cannot mean
    // "never refilled". The first call fills the bucket.
    if (!primed_) {
      primed_ = true;
      last_nanos_ = now_nanos;
      tokens_ = static_cast<double>(bytes_per_sec_);
      return;
    }
    double credit = static_cast<double>(now_nanos - last_nanos_) * 1e-9 *
                    static_cast<double>(bytes_per_sec_);
    tokens_ = std::min(tokens_ + credit, static_cast<double>(cap));
    last_nanos_ = now_nanos;
  }

  uint64_t bytes_per_sec_;
  double tokens_ = 0;
  uint64_t last_nanos_ = 0;
  bool primed_ = false;
};

}  // namespace megaphone
