//===- harness/ParallelExperiments.h - Deterministic parallel engine -*- C++ -*-===//
///
/// \file
/// The parallel experiment engine: fans suite data generation, threshold
/// sweeps and LOOCV folds out across a fixed TaskPool, with per-task
/// SchedContext arenas and (for stochastic tasks) per-task forked Rng
/// streams.
///
/// The determinism contract: every method returns bit-for-bit the same
/// result at any job count.  Three properties deliver it:
///   1. every task is a pure function of its own inputs -- workloads are
///      generated from per-benchmark seeds, learners seed their own Rng,
///      and any task-level randomness comes from Rng::fork(taskIndex);
///   2. results are written into index-owned slots, so assembly order is
///      the input order, not completion order;
///   3. the only non-deterministic outputs anywhere are measured
///      wall-clock fields (CompileReport::SchedulingSeconds), which vary
///      run to run even serially and back no pinned number.
/// tests/determinism_test.cpp locks the contract in; EXPERIMENTS.md
/// documents it for the --jobs flag.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_HARNESS_PARALLELEXPERIMENTS_H
#define SCHEDFILTER_HARNESS_PARALLELEXPERIMENTS_H

#include "harness/Experiments.h"
#include "io/CorpusCache.h"
#include "support/TaskPool.h"

#include <atomic>

namespace schedfilter {

/// Experiment drivers over a fixed worker pool.  An engine is cheap to
/// construct (Jobs == 1 spawns no threads) and reusable across calls.
class ExperimentEngine {
public:
  explicit ExperimentEngine(unsigned Jobs = 1) : Pool(Jobs) {}

  unsigned jobs() const { return Pool.jobs(); }
  TaskPool &pool() { return Pool; }

  /// Attaches an on-disk corpus cache (not owned; may be null to detach).
  /// With a cache attached, generateSuiteData loads each benchmark's
  /// records and fixed-policy reports from disk when a valid entry exists
  /// -- bit-identical to retracing, including at any job count -- and
  /// populates the cache when one does not.  Tracing is a pure function
  /// of the cache key (benchmark, model, family, the family's generator
  /// version, TracePipelineVersion, spec fingerprint), which is what makes
  /// serving cached records sound -- provided the versions are bumped
  /// with the code they stand for (see their doc comments).
  void setCorpusCache(CorpusCache *C) { Cache = C; }
  CorpusCache *corpusCache() const { return Cache; }

  /// Blocks actually traced (scheduled + simulated) by this engine's
  /// generateSuiteData calls.  A warm-cache suite run adds zero -- the
  /// counter the cache tests pin this guarantee with.
  uint64_t tracedBlocks() const { return TracedBlocks.load(); }

  /// Generates programs for \p Suite, simulates every block unscheduled
  /// and list-scheduled (the instrumented-scheduler step of §2.2), and
  /// compiles each program under the NS and LS fixed policies; parallel
  /// by benchmark.
  std::vector<BenchmarkRun>
  generateSuiteData(const std::vector<BenchmarkSpec> &Suite,
                    const MachineModel &Model);

  /// Labels every benchmark's records at threshold \p ThresholdPct
  /// (dropping the (0, t] noise band), one Dataset per benchmark, in suite
  /// order; parallel by benchmark.
  std::vector<Dataset> labelSuite(const std::vector<BenchmarkRun> &Suite,
                                  double ThresholdPct);

  /// The one held-out evaluator behind every §4 number: LOOCV-trains
  /// \p Learner over \p Labeled (one dataset per run of \p Suite, in
  /// suite order, already labeled at \p ThresholdPct -- by labelSuite or
  /// through a noise stack's label hooks) and prices each held-out filter
  /// on its own benchmark, recompiled under that run's ModelName, against
  /// the run's fixed-policy reports.  LOOCV folds and the per-benchmark
  /// pricing both fan out.
  ThresholdResult runHeldOut(const std::vector<BenchmarkRun> &Suite,
                             const std::vector<Dataset> &Labeled,
                             double ThresholdPct, const LearnerFn &Learner);

  /// runHeldOut over labelSuite(Suite, ThresholdPct).
  ThresholdResult runThreshold(const std::vector<BenchmarkRun> &Suite,
                               double ThresholdPct, const LearnerFn &Learner);

  /// runThreshold at every value of \p Thresholds: thresholds fan out
  /// across the pool; each threshold's inner layers run inline on the
  /// worker that owns it (TaskPool nesting).
  std::vector<ThresholdResult>
  runThresholdSweep(const std::vector<BenchmarkRun> &Suite,
                    const std::vector<double> &Thresholds,
                    const LearnerFn &Learner);

private:
  TaskPool Pool;
  CorpusCache *Cache = nullptr;
  std::atomic<uint64_t> TracedBlocks{0};
};

} // namespace schedfilter

#endif // SCHEDFILTER_HARNESS_PARALLELEXPERIMENTS_H
