//===- tests/determinism_test.cpp - jobs=1 vs jobs=4 regression -------------===//
//
// The parallel engine's headline guarantee: running a suite end-to-end at
// --jobs 1 and --jobs 4 yields identical SIM(P) numbers, work units,
// induced rule sets and Table-5-style aggregates -- bit for bit.  Uses a
// shrunken FP suite so the test stays fast while still covering every
// layer (generation, labeling, LOOCV training, evaluation,
// recompilation).  Wall-clock fields (SchedulingSeconds) are the one
// deliberate exception: they are measurements, not results, and are
// excluded here just as they are from the golden tests.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"

#include <gtest/gtest.h>

using namespace schedfilter;

namespace {

/// A small but non-trivial suite: four FP benchmarks at reduced size.
std::vector<BenchmarkSpec> smallSuite() {
  std::vector<BenchmarkSpec> Suite = fpSuite();
  Suite.resize(4);
  for (BenchmarkSpec &Spec : Suite)
    Spec.NumMethods = 14;
  return Suite;
}

void expectIdenticalRuns(const std::vector<BenchmarkRun> &A,
                         const std::vector<BenchmarkRun> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    ASSERT_EQ(A[I].Records.size(), B[I].Records.size());
    for (size_t R = 0; R != A[I].Records.size(); ++R) {
      EXPECT_EQ(A[I].Records[R].X, B[I].Records[R].X);
      EXPECT_EQ(A[I].Records[R].CostNoSched, B[I].Records[R].CostNoSched);
      EXPECT_EQ(A[I].Records[R].CostSched, B[I].Records[R].CostSched);
      EXPECT_EQ(A[I].Records[R].ExecCount, B[I].Records[R].ExecCount);
    }
    // SIM(P) and deterministic effort, both fixed policies.
    EXPECT_EQ(A[I].NeverReport.NumBlocks, B[I].NeverReport.NumBlocks);
    EXPECT_EQ(A[I].NeverReport.SimulatedTime, B[I].NeverReport.SimulatedTime);
    EXPECT_EQ(A[I].AlwaysReport.NumScheduled, B[I].AlwaysReport.NumScheduled);
    EXPECT_EQ(A[I].AlwaysReport.SchedulingWork,
              B[I].AlwaysReport.SchedulingWork);
    EXPECT_EQ(A[I].AlwaysReport.SimulatedTime,
              B[I].AlwaysReport.SimulatedTime);
  }
}

void expectIdenticalThresholdResults(const ThresholdResult &A,
                                     const ThresholdResult &B) {
  EXPECT_EQ(A.ThresholdPct, B.ThresholdPct);
  EXPECT_EQ(A.Names, B.Names);
  // Table 5 aggregates.
  EXPECT_EQ(A.TrainLS, B.TrainLS);
  EXPECT_EQ(A.TrainNS, B.TrainNS);
  // Table 6 aggregates.
  EXPECT_EQ(A.RuntimeLS, B.RuntimeLS);
  EXPECT_EQ(A.RuntimeNS, B.RuntimeNS);
  // Per-benchmark evaluation vectors (exact double equality: the values
  // are pure functions of the data, computed in suite order).
  EXPECT_EQ(A.ErrorPct, B.ErrorPct);
  EXPECT_EQ(A.PredictedTimePct, B.PredictedTimePct);
  EXPECT_EQ(A.EffortRatioWork, B.EffortRatioWork);
  EXPECT_EQ(A.AppRatioLN, B.AppRatioLN);
  EXPECT_EQ(A.AppRatioLS, B.AppRatioLS);
  // Induced rule sets, structurally (via the full printable form).
  ASSERT_EQ(A.Filters.size(), B.Filters.size());
  for (size_t I = 0; I != A.Filters.size(); ++I) {
    EXPECT_EQ(A.Filters[I].getDefaultClass(), B.Filters[I].getDefaultClass());
    EXPECT_EQ(A.Filters[I].toString(), B.Filters[I].toString());
  }
}

} // namespace

TEST(Determinism, SuiteDataIdenticalAcrossJobCounts) {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = smallSuite();
  ExperimentEngine Serial(1), Parallel(4);
  std::vector<BenchmarkRun> A = Serial.generateSuiteData(Suite, Model);
  std::vector<BenchmarkRun> B = Parallel.generateSuiteData(Suite, Model);
  expectIdenticalRuns(A, B);
}

TEST(Determinism, EndToEndThresholdRunIdenticalAcrossJobCounts) {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = smallSuite();
  ExperimentEngine Serial(1), Parallel(4);

  std::vector<BenchmarkRun> RunsA = Serial.generateSuiteData(Suite, Model);
  std::vector<BenchmarkRun> RunsB = Parallel.generateSuiteData(Suite, Model);

  ThresholdResult A = Serial.runThreshold(RunsA, 0.0, ripperLearner());
  ThresholdResult B = Parallel.runThreshold(RunsB, 0.0, ripperLearner());
  expectIdenticalThresholdResults(A, B);
}

TEST(Determinism, SweepIdenticalAcrossJobCountsAndMatchesSerialApi) {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = smallSuite();
  ExperimentEngine Parallel(4);

  std::vector<BenchmarkRun> Runs = Parallel.generateSuiteData(Suite, Model);
  std::vector<double> Thresholds = {0.0, 20.0, 50.0};

  // A one-job engine is the serial reference.
  std::vector<ThresholdResult> Serial =
      ExperimentEngine(1).runThresholdSweep(Runs, Thresholds, ripperLearner());
  std::vector<ThresholdResult> Threaded =
      Parallel.runThresholdSweep(Runs, Thresholds, ripperLearner());

  ASSERT_EQ(Serial.size(), Threaded.size());
  for (size_t I = 0; I != Serial.size(); ++I)
    expectIdenticalThresholdResults(Serial[I], Threaded[I]);
}

TEST(Determinism, LoocvFoldsIdenticalAcrossJobCounts) {
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = smallSuite();
  ExperimentEngine Engine(4);
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);

  std::vector<LoocvFold> Serial = leaveOneOut(Labeled, ripperLearner());
  std::vector<LoocvFold> Parallel =
      leaveOneOut(Labeled, ripperLearner(), Engine.pool());
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].HeldOut, Parallel[I].HeldOut);
    EXPECT_EQ(Serial[I].Filter.toString(), Parallel[I].Filter.toString());
  }
}
