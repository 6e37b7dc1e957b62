//===- bench/bench_ablation_features.cpp - Feature-group ablation ----------===//
//
// §2.1 of the paper develops its 13 features with "a little domain
// knowledge" and reports they "work well" without refinement; the sample
// filter in Figure 4 suggests block size and the call/system/load/store
// fractions carry most of the signal.  This ablation quantifies that:
// LOOCV error on SPECjvm98 (t = 0) with feature groups removed (their
// columns zeroed so they carry no information).
//
//   all features      - the paper's Table 1 set
//   no bbLen          - drop the block size
//   no op kinds       - drop branch/call/load/store/return fractions
//   no FU use         - drop integer/float/system fractions
//   no hazards        - drop PEI/GC/TS/yield fractions
//   bbLen only        - size alone
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "ml/Metrics.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"

#include "EngineOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

Dataset maskFeatures(const Dataset &D, const std::vector<unsigned> &Dropped) {
  Dataset Out(D.getName());
  for (const Instance &I : D) {
    Instance Masked = I;
    for (unsigned F : Dropped)
      Masked.X[F] = 0.0;
    Out.add(Masked);
  }
  return Out;
}

double loocvError(ExperimentEngine &Engine,
                  const std::vector<Dataset> &Labeled,
                  const std::vector<unsigned> &Dropped) {
  std::vector<Dataset> Masked;
  for (const Dataset &D : Labeled)
    Masked.push_back(maskFeatures(D, Dropped));
  std::vector<LoocvFold> Folds =
      leaveOneOut(Masked, ripperLearner(), Engine.pool());
  std::vector<double> Errors;
  for (size_t B = 0; B != Masked.size(); ++B)
    Errors.push_back(errorRatePercent(Folds[B].Filter, Masked[B]));
  return geometricMean(Errors);
}

} // namespace

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
  std::vector<Dataset> Labeled = Engine.labelSuite(Suite, 0.0);

  const std::vector<unsigned> OpKinds = {FeatBranch, FeatCall, FeatLoad,
                                         FeatStore, FeatReturn};
  const std::vector<unsigned> FuUse = {FeatInteger, FeatFloat, FeatSystem};
  const std::vector<unsigned> Hazards = {FeatPEI, FeatGC, FeatTS, FeatYield};
  std::vector<unsigned> AllButBBLen;
  for (unsigned F = FeatBranch; F != NumFeatures; ++F)
    AllButBBLen.push_back(F);

  std::cout << "Feature-group ablation: LOOCV error on SPECjvm98 at t = 0\n\n";
  TablePrinter T({"Feature set", "Error % (geomean)"});
  T.addRow({"all features (Table 1)", formatDouble(loocvError(Engine, Labeled, {}), 2)});
  T.addRow({"no bbLen", formatDouble(loocvError(Engine, Labeled, {FeatBBLen}), 2)});
  T.addRow({"no op kinds", formatDouble(loocvError(Engine, Labeled, OpKinds), 2)});
  T.addRow({"no FU use", formatDouble(loocvError(Engine, Labeled, FuUse), 2)});
  T.addRow({"no hazards", formatDouble(loocvError(Engine, Labeled, Hazards), 2)});
  T.addRow({"bbLen only", formatDouble(loocvError(Engine, Labeled, AllButBBLen), 2)});
  T.print(std::cout);

  std::cout << "\nExpected shape (matching the paper's Figure 4 reading): "
               "removing bbLen hurts\nmost, op-kind fractions matter next, "
               "and hazards are fine-tuning.\n";
  return 0;
}
