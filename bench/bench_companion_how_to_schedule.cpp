//===- bench/bench_companion_how_to_schedule.cpp - The NIPS'97 companion ---===//
//
// §2 of the paper separates two learning problems: *whether* to schedule
// (its contribution) and *how* to schedule (its earlier work: "machine
// learning could find, automatically, quite competent priority functions
// for local instruction scheduling heuristics", Moss et al. NIPS'97).
//
// This bench reproduces the companion result on our substrate: a linear
// preference function trained by averaged perceptron on decision points
// of simulator-optimal schedules of small blocks, compared against the
// hand-coded CPS heuristic and the optimal schedule itself, on held-out
// blocks.  Metrics: simulated cycles relative to the unscheduled order,
// and the fraction of blocks where each scheduler matches the optimum.
//
//===----------------------------------------------------------------------===//

#include "sched/LearnedPriority.h"
#include "sched/OptimalScheduler.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "workloads/ProgramGenerator.h"

#include <iostream>

using namespace schedfilter;

namespace {

std::vector<BasicBlock> sampleBlocks(const char *Benchmark, uint64_t Seed,
                                     int Count, size_t MaxSize) {
  const BenchmarkSpec *Spec = findBenchmarkSpec(Benchmark);
  Rng R(Seed);
  std::vector<BasicBlock> Out;
  while (static_cast<int>(Out.size()) < Count) {
    BasicBlock BB = ProgramGenerator(*Spec).generateBlock(
        R, R.range(1, 4), /*EndWithTerminator=*/true);
    if (!BB.empty() && BB.size() <= MaxSize)
      Out.push_back(std::move(BB));
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  if (CL.reportUnknown({}))
    return 1;
  MachineModel Model = MachineModel::ppc7410();

  std::cout << "Companion problem (paper §2 / NIPS'97): learning *how* to "
               "schedule\n\n";

  // Train on small blocks from three benchmarks; test on two others.
  std::vector<BasicBlock> Train = sampleBlocks("mpegaudio", 11, 120, 11);
  std::vector<BasicBlock> MoreTrain = sampleBlocks("compress", 12, 80, 11);
  Train.insert(Train.end(), MoreTrain.begin(), MoreTrain.end());
  PreferenceFunction Fn = PreferenceLearner().train(Train, Model);

  std::cout << "learned priority weights:\n";
  for (unsigned F = 0; F != DecisionFeatures::NumFeatures; ++F)
    std::cout << "  " << padRight(getDecisionFeatureName(F), 14)
              << formatDouble(Fn.weights()[F], 4) << '\n';
  std::cout << '\n';

  // Held-out evaluation.
  std::vector<BasicBlock> Test = sampleBlocks("raytrace", 21, 150, 11);
  std::vector<BasicBlock> Test2 = sampleBlocks("scimark", 22, 150, 11);
  Test.insert(Test.end(), Test2.begin(), Test2.end());

  ListScheduler Cps(Model);
  LearnedListScheduler Learned(Model, Fn);
  BlockSimulator Sim(Model);

  std::vector<double> CpsRatio, LearnedRatio, OptRatio;
  int CpsOptimal = 0, LearnedOptimal = 0, Exact = 0;
  for (const BasicBlock &BB : Test) {
    uint64_t Unsched = Sim.simulate(BB);
    if (Unsched == 0)
      continue;
    OptimalResult Opt = findOptimalSchedule(BB, Model);
    uint64_t CpsC = Sim.simulate(BB, Cps.schedule(BB).Order);
    uint64_t LearnedC = Sim.simulate(BB, Learned.schedule(BB).Order);
    double U = static_cast<double>(Unsched);
    CpsRatio.push_back(static_cast<double>(CpsC) / U);
    LearnedRatio.push_back(static_cast<double>(LearnedC) / U);
    OptRatio.push_back(static_cast<double>(Opt.Cycles) / U);
    Exact += Opt.Exact;
    CpsOptimal += CpsC == Opt.Cycles;
    LearnedOptimal += LearnedC == Opt.Cycles;
  }

  TablePrinter T({"Scheduler", "Cycles vs unscheduled (geomean)",
                  "Matches optimal"});
  auto Pct = [&](int N) {
    return formatPercent(static_cast<double>(N) /
                         static_cast<double>(CpsRatio.size()),
                         1);
  };
  T.addRow({"CPS heuristic", formatDouble(geometricMean(CpsRatio), 4),
            Pct(CpsOptimal)});
  T.addRow({"learned preference fn", formatDouble(geometricMean(LearnedRatio), 4),
            Pct(LearnedOptimal)});
  T.addRow({"optimal (exhaustive)", formatDouble(geometricMean(OptRatio), 4),
            "100.0%"});
  T.print(std::cout);

  std::cout << '\n'
            << Exact << "/" << CpsRatio.size()
            << " optimal searches were exact within budget.\n"
            << "The learned function is competent (close to CPS and to "
               "optimal) -- the paper's\npremise that the *how* problem "
               "is learnable, before it moves on to *whether*.\n";
  return 0;
}
