//===- perfbench/src/Measure.h - Clocks, rusage and order statistics -*- C++ -*-===//
///
/// \file
/// Every wall-clock read of the benchmark goes through support/Timer.h's
/// AccumulatingTimer (the one clock the determinism lint audits); process
/// CPU time comes from getrusage, peak resident memory from the kernel's
/// per-process high-water mark, which can be reset between workloads.
/// The tail statistic here is the one the result JSON reports.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include "support/Timer.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Elapsed wall time since construction, readable at any point.
class Stopwatch {
public:
  Stopwatch() { T.start(); }
  double seconds() {
    T.stop();
    double S = T.seconds();
    T.start();
    return S;
  }

private:
  schedfilter::AccumulatingTimer T;
};

/// Wall nanoseconds of one call of \p Fn.
template <typename Fn> int64_t timeNs(Fn &&F) {
  schedfilter::AccumulatingTimer T;
  T.start();
  F();
  T.stop();
  return T.nanoseconds();
}

/// User + system CPU seconds of the whole process (all threads).
double processCpuSeconds();

/// Resets the process's peak resident set size to its current size
/// (/proc/self/clear_refs); false when the kernel does not allow it.
bool resetPeakRss();

/// Peak resident set size since start or the last resetPeakRss(), MiB
/// (VmHWM of /proc/self/status); 0 when unreadable.
double peakRssMb();

/// One percentile of a timing sample, nearest-rank, with the number of
/// samples beyond its rank.
struct Tail {
  double Value = 0.0;
  unsigned Percentile = 0;
  size_t Beyond = 0; ///< samples strictly after the percentile's rank
};
Tail tailOf(std::vector<double> V, unsigned Percentile);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
