//===- harness/Experiments.h - Paper experiment drivers ---------*- C++ -*-===//
///
/// \file
/// The data model of the paper's evaluation: one instrumented benchmark
/// (program, per-block raw records of features + simulated cost with and
/// without list scheduling + profile weight, fixed-policy reports), the
/// per-threshold results Tables 3-6 and Figures 1-3 need, and the small
/// pure helpers shared by every driver.  ExperimentEngine
/// (harness/ParallelExperiments.h) is the one way to generate, label and
/// evaluate a suite.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_HARNESS_EXPERIMENTS_H
#define SCHEDFILTER_HARNESS_EXPERIMENTS_H

#include "filter/Pipeline.h"
#include "ml/CrossValidation.h"
#include "ml/Labeler.h"
#include "workloads/ProgramGenerator.h"

namespace schedfilter {

/// Version of the tracing pipeline *downstream* of the program
/// generator, the other half of the corpus-cache key
/// (io/CorpusCache.h).  A cached record is
/// f(program, ListScheduler, BlockSimulator, MachineModel tables), so
/// this MUST be bumped by any change that alters traced costs or
/// fixed-policy compile reports for some block -- scheduler priority or
/// tie-breaking tweaks, simulator scoreboard changes, latency/issue
/// table edits -- or warm caches will keep serving records computed by
/// the old code.  GeneratorVersion (workloads/ProgramGenerator.h)
/// covers the program-synthesis half.
constexpr uint32_t TracePipelineVersion = 1;

/// One benchmark, fully instrumented: its program, the raw per-block
/// records (the paper's trace file), and its two fixed-policy compile
/// reports.
struct BenchmarkRun {
  std::string Name;
  /// Name of the MachineModel the records and reports were generated
  /// under (set by ExperimentEngine::generateSuiteData; a mistune noise
  /// source rewrites it).  ExperimentEngine::runHeldOut recompiles each
  /// run under its own model, so cross-model experiments stay consistent.
  std::string ModelName;
  Program Prog;
  std::vector<BlockRecord> Records;
  CompileReport NeverReport;  ///< NS: baseline SIM time, zero effort.
  CompileReport AlwaysReport; ///< LS: full effort, best-effort SIM time.

  BenchmarkRun() : Prog("") {}
};

/// Everything measured at one threshold value, per benchmark (parallel
/// arrays in suite order) plus suite-level aggregates.
struct ThresholdResult {
  double ThresholdPct = 0.0;
  std::vector<std::string> Names;

  /// Table 3: LOOCV classification error, percent.
  std::vector<double> ErrorPct;
  /// Table 4: predicted (simulated) execution time as a percent of
  /// unscheduled, using each benchmark's cross-validated filter.
  std::vector<double> PredictedTimePct;
  /// Table 5 aggregates: labeled training-set sizes summed over the suite.
  size_t TrainLS = 0;
  size_t TrainNS = 0;
  /// Table 6 aggregates: run-time classification of every block by the
  /// held-out benchmark's own filter, summed over the suite.
  size_t RuntimeLS = 0;
  size_t RuntimeNS = 0;

  /// Figures (a): scheduling effort of L/N relative to LS, per benchmark.
  std::vector<double> EffortRatioWork; ///< deterministic work units
  std::vector<double> EffortRatioWall; ///< measured wall time
  /// Figures (b): application (simulated) running time relative to NS.
  std::vector<double> AppRatioLN; ///< L/N filter
  std::vector<double> AppRatioLS; ///< always-schedule, threshold-invariant

  /// The cross-validated filter per benchmark (for Figure 4 printing and
  /// the tests).
  std::vector<RuleSet> Filters;
};

/// The share of always-schedule's application-time benefit the filter
/// keeps, from the suite geometric means of AppRatioLN and AppRatioLS:
/// (1 - AppTimeLN) / (1 - AppTimeLS), as a fraction.  When LS gives no
/// benefit (AppTimeLS >= 1) there is nothing to lose, and the filter
/// keeps all of it: 1.0.
double lsBenefitRetained(double AppTimeLN, double AppTimeLS);

/// A filter priced on one benchmark's trace records: exec-weighted
/// simulated time under NS, under LS and under the filter's decisions,
/// each summed in record order, plus how many records the filter sends
/// to LS and to NS.
struct RecordPricing {
  double NoSchedTime = 0.0;
  double SchedTime = 0.0;
  double FilteredTime = 0.0;
  size_t NumLS = 0;
  size_t NumNS = 0;
};
RecordPricing priceOnRecords(const std::vector<BlockRecord> &Records,
                             const RuleSet &Filter);

/// The paper's threshold grid: {0, 5, ..., 50}.
std::vector<double> paperThresholds();

/// The default learner: RIPPER with its stock options, fanning the
/// per-feature candidate scans of each train() call across \p Pool.
/// Bit-identical at any job count, and safe to hand to leaveOneOut on the
/// same pool (nested parallelFor runs inline).  \p Pool must outlive the
/// returned functor.
LearnerFn ripperLearner(TaskPool &Pool);

} // namespace schedfilter

#endif // SCHEDFILTER_HARNESS_EXPERIMENTS_H
