//===- bench/bench_ablation_scheduler.cpp - Scheduler-independence ---------===//
//
// §1.1 of the paper: "our filtering technique applies to any competent
// scheduler: in essence we are discriminating between those blocks that a
// scheduler can improve significantly and those that it cannot, and this
// has more to do with the block than with details of the scheduler."
//
// Test: label the training data with the paper's CPS scheduler, induce
// filters (LOOCV, t = 0), then *deploy* them over a different competent
// scheduler (fanout-first tie-breaking).  If the paper is right, the
// filter should preserve (nearly) as much of the second scheduler's
// benefit as of the first's.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"

#include "EngineOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

/// SIM-metric ratios when the CPS-trained filter gates scheduler \p Sched.
void evaluate(const std::vector<BenchmarkRun> &Suite,
              const std::vector<LoocvFold> &Folds, SchedPriority Priority,
              const char *Name, const MachineModel &Model,
              TablePrinter &T) {
  ListScheduler Sched(Model, Priority);
  BlockSimulator Sim(Model);
  std::vector<double> AppLS, AppLN;
  for (size_t B = 0; B != Suite.size(); ++B) {
    const RuleSet &Filter = Folds[B].Filter;
    double NS = 0.0, LS = 0.0, LN = 0.0;
    size_t RecIdx = 0;
    Suite[B].Prog.forEachBlock([&](const BasicBlock &BB) {
      const BlockRecord &Rec = Suite[B].Records[RecIdx++];
      double W = static_cast<double>(BB.getExecCount());
      double Unsched = static_cast<double>(Rec.CostNoSched);
      double Sched2 =
          static_cast<double>(Sim.simulate(BB, Sched.schedule(BB).Order));
      NS += W * Unsched;
      LS += W * Sched2;
      LN += W * (Filter.predict(Rec.X) == Label::LS ? Sched2 : Unsched);
    });
    AppLS.push_back(LS / NS);
    AppLN.push_back(LN / NS);
  }
  double GLs = geometricMean(AppLS), GLn = geometricMean(AppLN);
  T.addRow({Name, formatDouble(GLs, 4), formatDouble(GLn, 4),
            formatPercent(lsBenefitRetained(GLn, GLs), 1)});
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
  // Labels and filters come from the CPS scheduler only.
  std::vector<BenchmarkRun> Suite =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  std::vector<LoocvFold> Folds =
      leaveOneOut(Engine.labelSuite(Suite, 0.0), ripperLearner(), Engine.pool());

  std::cout << "Scheduler-independence ablation (SPECjvm98, t = 0):\n"
               "filters trained with CPS labels, deployed over two "
               "different schedulers\n\n";
  TablePrinter T({"Deployed scheduler", "Always-schedule vs NS",
                  "Filtered vs NS", "Benefit retained"});
  evaluate(Suite, Folds, SchedPriority::CriticalPath,
           "CPS (training scheduler)", Model, T);
  evaluate(Suite, Folds, SchedPriority::Fanout, "fanout-first (unseen)",
           Model, T);
  T.print(std::cout);

  std::cout << "\nNear-equal retention across schedulers supports §1.1: "
               "the filter keys on the\nblock, not on the scheduler's "
               "tie-breaking details.\n";
  return 0;
}
