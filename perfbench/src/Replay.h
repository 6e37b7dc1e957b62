//===- perfbench/src/Replay.h - Traced per-layer replay of one serve -*- C++ -*-===//
///
/// \file
/// The traced run's per-layer measurement.  After a serve, the replay
/// calls each layer's public functions serially on exactly the inputs the
/// serve consumed, and times every call:
///
///   runtime   MultiAppService construction and run(), per tier;
///   ml        per retrain snapshot of ServiceStats::Swaps: buildDataset
///             and Ripper::train on the corpus prefix the version saw;
///   io        FilterRegistry::store of every installed version;
///   features  extractFeaturesBatch over each L/N-compiled method's
///             ungated blocks;
///   filter    ScheduleFilter::shouldScheduleBatch, with the version
///             ServiceStats::Compiles pins for the method;
///   sched     DependenceGraph::build and ListScheduler::scheduleInto per
///             scheduled block, each schedule checked by verifySchedule;
///   sim       BlockSimulator::simulate per compiled block.
///
/// The replay must reproduce the serve's work counters exactly
/// (BlocksCompiled, BlocksScheduled, SchedulingWork, FilterWork,
/// FilterLS/FilterNS, per-compile work, every swap's RulesHash, the
/// registry bytes); each mismatch is recorded as a failure.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Workload.h"

namespace perfbench {

/// Busy wall time (ns) and counts of one serve's replay.  Counts are
/// deterministic; they cover both tiers unless named per tier.
struct ReplayResult {
  int64_t ConstructNs = 0; ///< LS-tier MultiAppService ctor (baseline sim)
  int64_t RunLsNs = 0;
  int64_t RunLnNs = 0;
  int64_t TraceNs = 0;     ///< online: MethodCompiler::traceMethod records
  int64_t LabelNs = 0;     ///< buildDataset, all snapshots
  std::vector<int64_t> RetrainNs; ///< Ripper::train, one per snapshot
  int64_t StoreNs = 0;     ///< FilterRegistry::store, all versions
  int64_t ExtractNs = 0;
  int64_t DecideNs = 0;
  int64_t DagNs = 0;
  int64_t ScheduleNs = 0;
  int64_t SimulateNs = 0;

  uint64_t RetrainInstances = 0;
  uint64_t Stores = 0;
  uint64_t StoreFailures = 0;
  uint64_t FeatureBlocks = 0;
  uint64_t Decisions = 0;
  uint64_t DecisionsLS = 0;
  uint64_t FilterWork = 0;
  uint64_t DagBuilds = 0;
  uint64_t DagEdges = 0;
  uint64_t SchedWork = 0; ///< DAG + list-scheduling work units
  uint64_t ScheduledLs = 0, UsefulLs = 0; ///< LS tier
  uint64_t ScheduledLn = 0, UsefulLn = 0; ///< L/N tier
  uint64_t SimBlocks = 0;
  uint64_t SimCycles = 0;

  std::vector<std::string> Failures;

  /// Replayed compile + retrain busy time: what the serve spends outside
  /// its own invocation loop.
  int64_t compileAndRetrainNs() const;
};

/// Replays \p Served (the serve of \p P's stream \p StreamSeed) layer by
/// layer.  \p ServeRegistry
/// is the directory the serve persisted its lineage to (online only);
/// \p ReplayRegistry a fresh directory for the replay's own stores.
ReplayResult replayServe(const Prepared &P, uint64_t StreamSeed,
                         const MultiAppComparison &Served,
                         const MachineModel &Model, TaskPool &Pool,
                         const std::string &Workload,
                         const std::string &ServeRegistry,
                         const std::string &ReplayRegistry);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
