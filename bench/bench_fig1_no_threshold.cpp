//===- bench/bench_fig1_no_threshold.cpp - Paper Figure 1 ------------------===//
//
// Regenerates Figure 1: at t = 0 on SPECjvm98, (a) the scheduling time of
// the L/N filter relative to always list scheduling (LS), and (b) the
// application running time of LS and L/N relative to never scheduling
// (NS).
//
// Paper reference: (a) L/N takes 38% of LS's scheduling time on average
// (2.5x faster); (b) LS at 0.977 and L/N at 0.979 of NS, i.e. the filter
// keeps ~93% of LS's benefit.  Here application time is the simulated
// SIM(P) metric (the paper's Table 4 counterpart), so the improvements are
// larger in magnitude; the shape to check is L/N tracking LS closely while
// spending a fraction of the effort.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "harness/TableRender.h"
#include "support/CommandLine.h"

#include "EngineOption.h"

#include <iostream>

using namespace schedfilter;

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  if (CL.reportUnknown({"jobs", "corpus-dir", "no-cache"}))
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Suite =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  std::vector<ThresholdResult> Sweep =
      Engine.runThresholdSweep(Suite, {0.0}, ripperLearner(Engine.pool()));

  renderEffortFigure(Sweep, /*UseWallTime=*/false, std::cout);
  std::cout << '\n';
  renderEffortFigure(Sweep, /*UseWallTime=*/true, std::cout);
  std::cout << '\n';
  renderAppTimeFigure(Sweep, std::cout);
  std::cout << '\n';
  renderHeadline(Sweep, std::cout);
  return 0;
}
