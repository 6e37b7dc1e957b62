//===- noise/Robustness.h - Severity ladder + frontier evaluation -*- C++ -*-===//
///
/// \file
/// The robustness suite's measurement core: a fixed ladder of noise
/// stacks of increasing severity, and the evaluation of one (suite,
/// stack) point -- perturb and label through the stack, then price the
/// held-out filters with the harness's one evaluator
/// (ExperimentEngine::runHeldOut).
///
/// The frontier vocabulary (bench_robustness and EXPERIMENTS.md):
///   Retention R = lsBenefitRetained(geomean AppRatioLN,
///     geomean AppRatioLS), the share of always-schedule's app-time
///     benefit the filter keeps;
///   Effort E    = geomean(Work_LN / Work_LS),
///     the share of always-schedule's scheduling work it spends.
/// Always-schedule itself sits at (R, E) = (1, 1), so the filter beats
/// it exactly when it retains at least as large a share of the benefit
/// as it spends of the effort: WinMargin = R - E >= 0.  On a clean suite
/// the filter wins by a wide margin; the ladder measures how much signal
/// corruption that margin survives.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_NOISE_ROBUSTNESS_H
#define SCHEDFILTER_NOISE_ROBUSTNESS_H

#include "harness/ParallelExperiments.h"
#include "noise/NoiseStack.h"

namespace schedfilter {

/// Everything measured at one (suite, stack) point.
struct RobustnessPoint {
  std::string Stack;     ///< NoiseStack::describe() of the point.
  double EffortRatio = 0.0; ///< E: geomean L/N work / LS work.
  double AppTimeLN = 0.0;   ///< geomean L/N app time / NS app time.
  double AppTimeLS = 0.0;   ///< geomean LS app time / NS app time.
  double Retention = 0.0;   ///< R: benefit share retained vs LS.
  double WinMargin = 0.0;   ///< R - E; >= 0 means the filter wins.
  size_t TrainLS = 0;       ///< LS training instances, suite total.
  size_t TrainNS = 0;       ///< NS training instances, suite total.
  size_t RuntimeLS = 0;     ///< blocks the held-out filters scheduled.
  size_t RuntimeBlocks = 0; ///< blocks the held-out filters classified.
};

/// Number of rungs on the built-in severity ladder (level 0 is the
/// clean, empty stack).
unsigned numRobustnessLevels();

/// The --noise spec of ladder rung \p Level (< numRobustnessLevels());
/// level 0 is the empty spec.  Specs are ordered by strictly increasing
/// severity: each rung contains every corruption of the previous one at
/// an equal-or-higher parameter, so the measured frontier is monotone by
/// construction of the inputs (the *outputs* staying monotone is the
/// result bench_robustness pins).
const char *robustnessLevelSpec(unsigned Level);

/// robustnessLevelSpec(Level) parsed into a stack seeded with \p Seed.
NoiseStack robustnessStack(unsigned Level, uint64_t Seed);

/// Evaluates one point: perturbs \p Suite through \p Stack (by value --
/// the caller's clean suite is untouched), labels at \p ThresholdPct
/// with the stack's label hooks, and hands the labeled suite to
/// ExperimentEngine::runHeldOut, which LOOCV-trains RIPPER and prices
/// every held-out filter under the run's (possibly mis-tuned) model.
/// Deterministic at any job count: perturbation, labeling, folds and
/// pricing all fan out over index-owned slots.
RobustnessPoint runRobustnessPoint(ExperimentEngine &Engine,
                                   std::vector<BenchmarkRun> Suite,
                                   const NoiseStack &Stack,
                                   double ThresholdPct);

} // namespace schedfilter

#endif // SCHEDFILTER_NOISE_ROBUSTNESS_H
