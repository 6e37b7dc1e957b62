//===- bench/bench_ablation_learners.cpp - Learner ablation -----------------===//
//
// Ablation study behind the paper's choice of rule induction: compares
// RIPPER against the fixed strategies (always / never schedule) and two
// cheap learned baselines (a bbLen decision stump and 1R, the best
// single-feature split) on SPECjvm98 with leave-one-out cross-validation
// at t = 0 and t = 20.
//
// For each policy we report classification error, scheduling effort
// relative to LS, and application (simulated) time relative to NS.  The
// paper's implicit claim to verify: the multi-condition induced rules beat
// every trivial policy on the effort/benefit frontier (the stump gets part
// of the way -- bbLen is the strongest single feature -- but leaves either
// benefit or effort on the table).
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "ml/Baselines.h"
#include "ml/DecisionTree.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"

#include "EngineOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

void runAblation(ExperimentEngine &Engine,
                 const std::vector<BenchmarkRun> &Suite, double Threshold,
                 std::ostream &OS) {
  struct NamedLearner {
    const char *Name;
    LearnerFn Learner;
  };
  const NamedLearner Learners[] = {
      {"RIPPER", ripperLearner(Engine.pool())},
      {"C4.5-style tree",
       [](const Dataset &D) { return learnDecisionTreeRules(D); }},
      {"1R (best single split)",
       [](const Dataset &D) { return learnOneR(D); }},
      {"bbLen stump", [](const Dataset &D) { return learnSizeStump(D); }},
      {"always schedule", [](const Dataset &) { return makeAlwaysSchedule(); }},
      {"never schedule", [](const Dataset &) { return makeNeverSchedule(); }},
  };

  OS << "Ablation at t = " << Threshold << " (suite geometric means)\n\n";
  TablePrinter T({"Policy", "Error %", "Model size (rules/conds)",
                  "Effort vs LS", "App time vs NS", "LS benefit retained"});
  for (const NamedLearner &L : Learners) {
    ThresholdResult R = Engine.runThreshold(Suite, Threshold, L.Learner);
    double LN = geometricMean(R.AppRatioLN);
    double Retained = lsBenefitRetained(LN, geometricMean(R.AppRatioLS));
    size_t Rules = 0, Conds = 0;
    for (const RuleSet &RS : R.Filters) {
      Rules += RS.size();
      Conds += RS.totalConditions();
    }
    T.addRow({L.Name, formatDouble(geometricMean(R.ErrorPct), 2),
              std::to_string(Rules / R.Filters.size()) + "/" +
                  std::to_string(Conds / R.Filters.size()),
              formatPercent(geometricMean(R.EffortRatioWork), 1),
              formatDouble(LN, 4), formatPercent(Retained, 1)});
  }
  T.print(OS);
  OS << '\n';
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
  runAblation(Engine, Suite, 0.0, std::cout);
  runAblation(Engine, Suite, 20.0, std::cout);
  return 0;
}
