//===- harness/Experiments.cpp - Paper experiment drivers -------------------===//
//
// The serial entry points are thin wrappers over a one-job
// ExperimentEngine (harness/ParallelExperiments.h): one implementation,
// one set of numbers, at any --jobs value.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiments.h"

#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"

using namespace schedfilter;

std::vector<BenchmarkRun>
schedfilter::generateSuiteData(const std::vector<BenchmarkSpec> &Suite,
                               const MachineModel &Model) {
  return ExperimentEngine(1).generateSuiteData(Suite, Model);
}

std::vector<Dataset>
schedfilter::labelSuite(const std::vector<BenchmarkRun> &Suite,
                        double ThresholdPct) {
  return ExperimentEngine(1).labelSuite(Suite, ThresholdPct);
}

double schedfilter::lsBenefitRetained(double AppTimeLN, double AppTimeLS) {
  double BenefitLS = 1.0 - AppTimeLS;
  return BenefitLS > 0.0 ? (1.0 - AppTimeLN) / BenefitLS : 1.0;
}

std::vector<double> schedfilter::paperThresholds() {
  std::vector<double> T;
  for (int V = 0; V <= 50; V += 5)
    T.push_back(static_cast<double>(V));
  return T;
}

LearnerFn schedfilter::ripperLearner() {
  return [](const Dataset &Train) { return Ripper().train(Train); };
}

LearnerFn schedfilter::ripperLearner(TaskPool &Pool) {
  return [&Pool](const Dataset &Train) { return Ripper().train(Train, Pool); };
}
