//===- support/Stopwatch.h - Wall-clock timing -----------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steady-clock stopwatch used for the secondary (wall-clock) timing
/// metric and for GC pause-time statistics.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SUPPORT_STOPWATCH_H
#define HCSGC_SUPPORT_STOPWATCH_H

#include <chrono>
#include <cstdint>

namespace hcsgc {

/// Measures elapsed wall-clock time from construction or last restart.
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}

  /// Restarts the measurement from now.
  void restart() { Start = Clock::now(); }

  /// \returns elapsed nanoseconds since construction/restart.
  uint64_t elapsedNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Start)
            .count());
  }

  /// \returns elapsed milliseconds as a double.
  double elapsedMs() const {
    return static_cast<double>(elapsedNs()) * 1e-6;
  }

  /// \returns elapsed milliseconds and restarts from the same clock
  /// read, so consecutive laps add up to the whole span.
  double lapMs() {
    Clock::time_point Now = Clock::now();
    double Ms = static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Now - Start)
                        .count()) *
                1e-6;
    Start = Now;
    return Ms;
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace hcsgc

#endif // HCSGC_SUPPORT_STOPWATCH_H
