//===- support/Timer.h - Wall-clock accumulation ---------------*- C++ -*-===//
///
/// \file
/// Accumulating wall-clock timers.  The paper measures elapsed time spent in
/// the compiler "broken down by phase and individual optimization" and folds
/// filter-evaluation cost into the scheduling phase; AccumulatingTimer plays
/// that role here.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_TIMER_H
#define SCHEDFILTER_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace schedfilter {

/// Accumulates elapsed nanoseconds across many start/stop intervals.
class AccumulatingTimer {
public:
  void start() { Begin = Clock::now(); }

  void stop() {
    TotalNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - Begin)
                   .count();
  }

  /// Total accumulated time in seconds.
  double seconds() const { return static_cast<double>(TotalNs) * 1e-9; }

  /// Total accumulated time in nanoseconds.
  int64_t nanoseconds() const { return TotalNs; }

  void reset() { TotalNs = 0; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Begin;
  int64_t TotalNs = 0;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_TIMER_H
