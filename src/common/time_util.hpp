// Wall-clock helpers shared by the open-loop harness and benches.
#pragma once

#include <chrono>
#include <cstdint>

namespace megaphone {

/// Monotonic wall-clock in nanoseconds since an arbitrary epoch.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace megaphone
