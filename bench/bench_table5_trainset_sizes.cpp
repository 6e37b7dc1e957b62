//===- bench/bench_table5_trainset_sizes.cpp - Paper Table 5 ---------------===//
//
// Regenerates Table 5: the effect of the threshold t on training-set size
// for SPECjvm98.  Instances whose scheduling benefit lies in (0, t] are
// dropped, so the LS count falls steadily with t while the NS count is
// exactly constant (NS labeling does not depend on t).
//
// Paper reference: LS falls 8173 -> 49 over t = 0..50; NS constant 37280.
// Absolute counts differ here (synthetic suite, smaller population); the
// monotone LS decay and constant NS are the reproduced properties.
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

  // Only labeling is needed for this table; avoid the full LOOCV sweep.
  std::vector<ThresholdResult> Sweep;
  for (double T : paperThresholds()) {
    ThresholdResult R;
    R.ThresholdPct = T;
    for (const Dataset &D : Engine.labelSuite(Suite, T)) {
      R.TrainLS += D.countLabel(Label::LS);
      R.TrainNS += D.countLabel(Label::NS);
    }
    Sweep.push_back(std::move(R));
  }
  renderTable5(Sweep, std::cout);
  return 0;
}
