//===- bench/bench_fig4_induced_filter.cpp - Paper Figure 4 ----------------===//
//
// Regenerates Figure 4: a sample induced filter.  As in the paper, the
// rule set is trained on 6 of the 7 SPECjvm98 benchmarks (jack held out)
// at t = 0, and printed with per-rule (correct/incorrect) training
// coverage counts.
//
// Paper reference: rules of the form
//   (924/12) list :- bbLen >= 7, calls <= 0.0857, loads >= 0.3793, ...
// with block size and the call/system/load/store fractions carrying most
// of the signal, and a default "orig" rule covering the large majority of
// blocks.  Those are exactly the properties to eyeball here.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAnalysis.h"
#include "harness/ParallelExperiments.h"
#include "harness/TableRender.h"
#include "ml/Ripper.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

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
  std::vector<Dataset> Labeled = Engine.labelSuite(Suite, /*ThresholdPct=*/0.0);

  // Train on everything except jack (the last suite member).
  Dataset Train("specjvm98-minus-jack");
  for (size_t I = 0; I + 1 < Labeled.size(); ++I)
    Train.append(Labeled[I]);
  RuleSet Filter = Ripper().train(Train, Engine.pool());

  renderInducedFilter(Filter, std::cout);

  std::cout << "\nTraining set: " << Train.size() << " instances ("
            << Train.countLabel(Label::LS) << " LS, "
            << Train.countLabel(Label::NS) << " NS)\n"
            << "Rules: " << Filter.size() << ", total conditions "
            << Filter.totalConditions() << "\n"
            << "O(1) bbLen rejection gate: blocks shorter than "
            << Filter.minMatchableBBLen()
            << " instructions classify as NS immediately\n";

  // The static analyzer's view of the same filter: findings, and the
  // per-prediction work a normalized (dead/shadowed/redundant-free)
  // filter saves over the whole suite's blocks.  The trainer never emits
  // dead or shadowed rules (golden-pinned in analysis_test), but greedy
  // growth does re-test a feature with a tighter threshold ("bbLen >= 6,
  // ..., bbLen >= 11"), so a few redundant conditions -- and a small
  // work saving -- are expected and reported here.
  RuleAnalysis Lint = analyzeRuleSet(Filter, &Train);
  std::cout << "\nStatic analysis: "
            << Lint.numFindings(LintSeverity::Error) << " errors, "
            << Lint.numFindings(LintSeverity::Warning) << " warnings, "
            << Lint.numFindings(LintSeverity::Note) << " notes ("
            << Lint.removedRules() << " rules / " << Lint.removedConditions()
            << " conditions normalizable)\n";
  RuleSet Normalized = normalizeRuleSet(Filter, Lint);
  uint64_t WorkBefore = 0, WorkAfter = 0;
  size_t NumBlocks = 0;
  for (const Dataset &D : Labeled) {
    NumBlocks += D.size();
    for (const Instance &I : D) {
      WorkBefore += Filter.predictionWork(I.X);
      WorkAfter += Normalized.predictionWork(I.X);
    }
  }
  std::cout << "predictionWork over the suite's " << NumBlocks
            << " blocks: " << WorkBefore << " units as induced, " << WorkAfter
            << " normalized (saves "
            << formatPercent(WorkBefore == 0
                                 ? 0.0
                                 : 1.0 - static_cast<double>(WorkAfter) /
                                             static_cast<double>(WorkBefore))
            << "; the O(1) bbLen gate is applied before either)\n";
  return 0;
}
