//===- noise/Robustness.cpp - Severity ladder + frontier evaluation -------===//

#include "noise/Robustness.h"

#include "support/Statistics.h"

#include <cassert>

using namespace schedfilter;

namespace {

/// The built-in ladder.  Each rung keeps every corruption of the one
/// below at an equal-or-higher parameter, so severity is ordered by
/// construction.  Parameters were tuned on the registered families so
/// the win margin crosses zero inside the ladder: the filter still beats
/// always-schedule around the middle rungs and loses by the top.
const char *const LevelSpecs[] = {
    /*L0*/ "",
    /*L1*/ "jitter:0.1,spikes:0.05",
    /*L2*/ "jitter:0.2,spikes:0.1,labelflip:0.1",
    /*L3*/ "jitter:0.3,spikes:0.15,labelflip:0.25,mistune:ppc970",
    /*L4*/ "jitter:0.4,spikes:0.2,labelflip:0.4,mistune:ppc970",
};

} // namespace

unsigned schedfilter::numRobustnessLevels() {
  return sizeof(LevelSpecs) / sizeof(LevelSpecs[0]);
}

const char *schedfilter::robustnessLevelSpec(unsigned Level) {
  assert(Level < numRobustnessLevels() && "no such ladder rung");
  return LevelSpecs[Level];
}

NoiseStack schedfilter::robustnessStack(unsigned Level, uint64_t Seed) {
  ParseResult<NoiseStack> S = parseNoiseStack(robustnessLevelSpec(Level), Seed);
  assert(S && "ladder specs are known-valid");
  return std::move(*S);
}

RobustnessPoint schedfilter::runRobustnessPoint(ExperimentEngine &Engine,
                                                std::vector<BenchmarkRun> Suite,
                                                const NoiseStack &Stack,
                                                double ThresholdPct) {
  Stack.perturbSuite(Suite, Engine.pool());
  ThresholdResult R = Engine.runHeldOut(
      Suite, Stack.labelSuite(Suite, ThresholdPct, Engine.pool()),
      ThresholdPct, ripperLearner());

  RobustnessPoint P;
  P.Stack = Stack.describe();
  P.EffortRatio = geometricMean(R.EffortRatioWork);
  P.AppTimeLN = geometricMean(R.AppRatioLN);
  P.AppTimeLS = geometricMean(R.AppRatioLS);
  P.Retention = lsBenefitRetained(P.AppTimeLN, P.AppTimeLS);
  P.WinMargin = P.Retention - P.EffortRatio;
  P.TrainLS = R.TrainLS;
  P.TrainNS = R.TrainNS;
  P.RuntimeLS = R.RuntimeLS;
  P.RuntimeBlocks = R.RuntimeLS + R.RuntimeNS;
  return P;
}
