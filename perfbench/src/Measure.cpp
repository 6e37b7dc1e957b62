//===- perfbench/src/Measure.cpp - Clocks, rusage and order statistics ------===//

#include "Measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

using namespace perfbench;

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

bool perfbench::resetPeakRss() {
  std::ofstream OS("/proc/self/clear_refs");
  OS << "5"; // reset the high-water mark (Linux >= 4.0)
  OS.flush();
  return static_cast<bool>(OS);
}

double perfbench::peakRssMb() {
  std::ifstream IS("/proc/self/status");
  for (std::string Line; std::getline(IS, Line);) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    std::istringstream LS(Line.substr(6));
    double KiB = 0.0;
    LS >> KiB;
    return KiB / 1024.0;
  }
  return 0.0;
}

Tail perfbench::tailOf(std::vector<double> V, unsigned Percentile) {
  Tail T;
  T.Percentile = Percentile;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  // Nearest rank, 1-based: ceil(P * N / 100), in integers.
  size_t R = (static_cast<size_t>(Percentile) * N + 99) / 100;
  R = std::max<size_t>(1, std::min(R, N));
  T.Value = V[R - 1];
  T.Beyond = N - R;
  return T;
}
