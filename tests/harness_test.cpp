//===- tests/harness_test.cpp - harness/ unit tests ---------------------------===//

#include "harness/Experiments.h"
#include "harness/TableRender.h"
#include "support/Statistics.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// Shared tiny suite so the harness tests stay fast: generated once.
const std::vector<BenchmarkRun> &tinySuite() {
  static const std::vector<BenchmarkRun> Suite = [] {
    MachineModel Model = MachineModel::ppc7410();
    return generateSuiteData(shrinkSuite(specjvm98Suite(), 6), Model);
  }();
  return Suite;
}

} // namespace

TEST(Experiments, SuiteDataShape) {
  const std::vector<BenchmarkRun> &Suite = tinySuite();
  ASSERT_EQ(Suite.size(), 7u);
  for (const BenchmarkRun &Run : Suite) {
    EXPECT_EQ(Run.Records.size(), Run.Prog.totalBlocks());
    EXPECT_EQ(Run.NeverReport.NumBlocks, Run.Prog.totalBlocks());
    EXPECT_EQ(Run.AlwaysReport.NumScheduled, Run.Prog.totalBlocks());
    EXPECT_EQ(Run.NeverReport.NumScheduled, 0u);
  }
}

TEST(Experiments, RecordsMatchPolicyReports) {
  // Sum of exec-weighted unscheduled costs == the NS pipeline's SIM time;
  // same for the scheduled costs vs the LS pipeline.
  for (const BenchmarkRun &Run : tinySuite()) {
    double NoSched = 0.0, Sched = 0.0;
    for (const BlockRecord &R : Run.Records) {
      NoSched += static_cast<double>(R.ExecCount) *
                 static_cast<double>(R.CostNoSched);
      Sched += static_cast<double>(R.ExecCount) *
               static_cast<double>(R.CostSched);
    }
    EXPECT_DOUBLE_EQ(NoSched, Run.NeverReport.SimulatedTime);
    EXPECT_DOUBLE_EQ(Sched, Run.AlwaysReport.SimulatedTime);
  }
}

TEST(Experiments, LabelSuiteNamesAndNsInvariance) {
  const std::vector<BenchmarkRun> &Suite = tinySuite();
  std::vector<Dataset> At0 = labelSuite(Suite, 0.0);
  std::vector<Dataset> At30 = labelSuite(Suite, 30.0);
  ASSERT_EQ(At0.size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I) {
    EXPECT_EQ(At0[I].getName(), Suite[I].Name);
    // Table 5 property: NS constant, LS shrinking.
    EXPECT_EQ(At30[I].countLabel(Label::NS), At0[I].countLabel(Label::NS));
    EXPECT_LE(At30[I].countLabel(Label::LS), At0[I].countLabel(Label::LS));
  }
}

TEST(Experiments, PaperThresholdGrid) {
  std::vector<double> T = paperThresholds();
  ASSERT_EQ(T.size(), 11u);
  EXPECT_EQ(T.front(), 0.0);
  EXPECT_EQ(T.back(), 50.0);
  for (size_t I = 1; I != T.size(); ++I)
    EXPECT_EQ(T[I] - T[I - 1], 5.0);
}

TEST(Experiments, RunThresholdFieldShapes) {
  ThresholdResult R = runThreshold(tinySuite(), 0.0, ripperLearner());
  EXPECT_EQ(R.Names.size(), 7u);
  EXPECT_EQ(R.ErrorPct.size(), 7u);
  EXPECT_EQ(R.PredictedTimePct.size(), 7u);
  EXPECT_EQ(R.EffortRatioWork.size(), 7u);
  EXPECT_EQ(R.AppRatioLN.size(), 7u);
  EXPECT_EQ(R.AppRatioLS.size(), 7u);
  EXPECT_EQ(R.Filters.size(), 7u);
  size_t Blocks = 0;
  for (const BenchmarkRun &Run : tinySuite())
    Blocks += Run.Records.size();
  EXPECT_EQ(R.RuntimeLS + R.RuntimeNS, Blocks);
}

TEST(Experiments, RunThresholdValueRanges) {
  ThresholdResult R = runThreshold(tinySuite(), 0.0, ripperLearner());
  for (size_t I = 0; I != R.Names.size(); ++I) {
    EXPECT_GE(R.ErrorPct[I], 0.0);
    EXPECT_LE(R.ErrorPct[I], 100.0);
    EXPECT_GT(R.PredictedTimePct[I], 0.0);
    EXPECT_LE(R.PredictedTimePct[I], 100.5);
    EXPECT_GE(R.EffortRatioWork[I], 0.0);
    EXPECT_LE(R.AppRatioLN[I], 1.001);
    EXPECT_LE(R.AppRatioLS[I], 1.001);
  }
}

TEST(Experiments, RetentionIsWholeWhenLsGivesNoBenefit) {
  // A suite where always-schedule buys nothing (or loses): there is no
  // benefit to lose, so the filter keeps all of it -- never inf or NaN.
  ThresholdResult R;
  R.AppRatioLN = {0.98, 1.02};
  for (double LS : {1.0, 1.05}) {
    R.AppRatioLS = {LS, LS};
    double Kept = lsBenefitRetained(geometricMean(R.AppRatioLN),
                                    geometricMean(R.AppRatioLS));
    EXPECT_TRUE(std::isfinite(Kept)) << LS;
    EXPECT_EQ(Kept, 1.0) << LS;
  }
  // With a benefit it is the plain ratio of benefits.
  EXPECT_NEAR(lsBenefitRetained(0.95, 0.9), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(lsBenefitRetained(0.9, 0.9), 1.0);
}

TEST(Experiments, SweepCoversAllThresholds) {
  std::vector<ThresholdResult> Sweep =
      runThresholdSweep(tinySuite(), {0.0, 25.0}, ripperLearner());
  ASSERT_EQ(Sweep.size(), 2u);
  EXPECT_EQ(Sweep[0].ThresholdPct, 0.0);
  EXPECT_EQ(Sweep[1].ThresholdPct, 25.0);
  // Higher threshold -> fewer LS training instances, fewer runtime LS.
  EXPECT_LE(Sweep[1].TrainLS, Sweep[0].TrainLS);
  EXPECT_LE(Sweep[1].RuntimeLS, Sweep[0].RuntimeLS);
}

TEST(TableRender, Table3RowsAndHeader) {
  std::vector<ThresholdResult> Sweep =
      runThresholdSweep(tinySuite(), {0.0, 20.0}, ripperLearner());
  std::ostringstream OS;
  renderTable3(Sweep, OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Table 3"), std::string::npos);
  EXPECT_NE(Out.find("compress"), std::string::npos);
  EXPECT_NE(Out.find("Geo. mean"), std::string::npos);
  EXPECT_NE(Out.find("0%"), std::string::npos);
  EXPECT_NE(Out.find("20%"), std::string::npos);
  EXPECT_NE(Out.find("csv:"), std::string::npos);
}

TEST(TableRender, Table4PercentOfUnscheduled) {
  std::vector<ThresholdResult> Sweep =
      runThresholdSweep(tinySuite(), {0.0}, ripperLearner());
  std::ostringstream OS;
  renderTable4(Sweep, OS);
  EXPECT_NE(OS.str().find("percent of unscheduled"), std::string::npos);
}

TEST(TableRender, Table5And6RowLayout) {
  std::vector<ThresholdResult> Sweep =
      runThresholdSweep(tinySuite(), {0.0, 20.0}, ripperLearner());
  std::ostringstream OS5, OS6;
  renderTable5(Sweep, OS5);
  renderTable6(Sweep, OS6);
  EXPECT_NE(OS5.str().find("t=0"), std::string::npos);
  EXPECT_NE(OS5.str().find("t=20"), std::string::npos);
  EXPECT_NE(OS6.str().find("LS"), std::string::npos);
  EXPECT_NE(OS6.str().find("NS"), std::string::npos);
}

TEST(TableRender, FiguresAndHeadline) {
  std::vector<ThresholdResult> Sweep =
      runThresholdSweep(tinySuite(), {0.0}, ripperLearner());
  std::ostringstream OS;
  renderEffortFigure(Sweep, false, OS);
  renderEffortFigure(Sweep, true, OS);
  renderAppTimeFigure(Sweep, OS);
  renderHeadline(Sweep, OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("relative to LS"), std::string::npos);
  EXPECT_NE(Out.find("relative to NS"), std::string::npos);
  EXPECT_NE(Out.find("LS (always)"), std::string::npos);
  EXPECT_NE(Out.find("benefit retained"), std::string::npos);
}

TEST(TableRender, InducedFilterPrintout) {
  ThresholdResult R = runThreshold(tinySuite(), 0.0, ripperLearner());
  std::ostringstream OS;
  renderInducedFilter(R.Filters[0], OS);
  EXPECT_NE(OS.str().find("(default) orig"), std::string::npos);
}
