//===- perfbench/src/Workload.h - The three named serve workloads -*- C++ -*-===//
///
/// \file
/// The benchmark's workloads, their set-up and one served comparison.
///
///   steady-mix     specjvm98,ptrchase,fpkernel interleaved, default
///                  ServiceConfig, static self-trained filter, 2M
///                  invocations: the runtime loop dominates.
///   compile-storm  all registered families, HotThreshold 1, drain 64 per
///                  epoch, queue cap 4096, 200k invocations: JIT warm-up,
///                  the per-block compile fold dominates.
///   online-mix     the steady-mix apps with Online on, default
///                  RetrainEvery, 200k invocations: RIPPER retraining
///                  dominates.
///
/// Set-up mirrors sf-serve --workload's self-training path (programs and
/// traces from the experiment engine with the benchmark's corpus cache,
/// threshold-0 labeling, one pooled RIPPER train); a serve is one
/// runMultiAppComparison (LS tier, then L/N tier), as sf-serve runs it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "harness/ParallelExperiments.h"
#include "runtime/MultiAppService.h"

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using namespace schedfilter;

/// The seed the expected digests are pinned at (held-out seed: see
/// README.md).
inline constexpr uint64_t DefaultSeed = 1;

struct Workload {
  std::string Name;
  std::vector<std::pair<std::string, double>> Mix; ///< family, weight
  ServiceConfig Cfg; ///< StreamSeed unset; see streamSeed()
  uint64_t StreamId = 0; ///< Rng fork id of this workload's streams
  /// Streams in the workload's panel.  A run serves them in rotation and
  /// reports over whole panels, so one seed's luck in which methods turn
  /// hot averages out.
  unsigned Streams = 8;
  /// The percentile serve_s_tail reports, fixed per workload so that
  /// every run, and a parent and its change, compare the same order
  /// statistic: the highest one with at least ten serves beyond it at
  /// the serve count of a run_seconds run on the unloaded baseline host.
  unsigned TailPercentile = 90;
};

/// The three workloads, in their fixed order.
const std::vector<Workload> &allWorkloads();
/// The workload named \p Name, or nullptr.
const Workload *findWorkload(const std::string &Name);

/// "specjvm98,ptrchase,fpkernel": the mix as the registry records it.
std::string mixName(const Workload &W);

/// The seed of stream \p Stream of \p W's panel at benchmark seed \p Seed:
/// forks of support/Rng, so workloads and streams never share a stream
/// and the program receives only the generated stream.
uint64_t streamSeed(const Workload &W, uint64_t Seed, unsigned Stream);

/// Everything a serve consumes, produced by set-up.
struct Prepared {
  std::vector<AppSpec> Apps;
  std::vector<Program> Programs;
  RuleSet Rules{Label::NS}; ///< the v1 filter, trained on the mix's traces
  std::vector<BlockRecord> SeedRecords; ///< online only: v1's corpus
  ServiceConfig Cfg;                    ///< StreamSeed left 0
  uint64_t TrainInstances = 0;
};

/// Wall time of set-up's calls into the harness and ml layers.
struct SetupSpans {
  int64_t SuiteDataNs = 0; ///< ExperimentEngine::generateSuiteData
  int64_t LabelNs = 0;     ///< ExperimentEngine::labelSuite
  int64_t TrainNs = 0;     ///< ripperLearner (v1 RIPPER train)
};

/// Set-up of \p W: program generation and corpus load, labeling, the v1
/// train.  \p Engine carries the pool and the corpus cache.  Set-up does
/// not depend on the seed; only the streams do.
Prepared prepare(const Workload &W, const MachineModel &Model,
                 ExperimentEngine &Engine, SetupSpans &Spans);

/// One served comparison of the stream seeded \p StreamSeed over \p P.
/// \p Registry (online only) receives the L/N tier's filter lineage.
MultiAppComparison serve(const Workload &W, const Prepared &P,
                         uint64_t StreamSeed, const MachineModel &Model,
                         TaskPool &Pool, FilterRegistry *Registry);

/// Canonical 64-bit digest of a comparison: every field of both tiers'
/// MultiAppStats, the recoup figures and the v1 rules fingerprint.
uint64_t statsDigest(const MultiAppComparison &Cmp, const RuleSet &Rules);

/// Deep equality of two comparisons (stats and recoup doubles).
bool sameComparison(const MultiAppComparison &A, const MultiAppComparison &B);

std::string hex64(uint64_t V);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
