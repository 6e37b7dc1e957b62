//===- perfbench/src/Replay.cpp - Traced per-layer replay of one serve ------===//

#include "Replay.h"

#include "features/FeatureMatrix.h"
#include "filter/ScheduleFilter.h"
#include "io/FilterRegistry.h"
#include "ml/Ripper.h"
#include "runtime/MethodCompiler.h"
#include "sched/SchedContext.h"
#include "sched/ScheduleVerifier.h"

#include "Measure.h"

#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>

using namespace perfbench;

int64_t ReplayResult::compileAndRetrainNs() const {
  int64_t Ns = TraceNs + LabelNs + ExtractNs + DecideNs + DagNs + ScheduleNs +
               SimulateNs;
  for (int64_t R : RetrainNs)
    Ns += R;
  return Ns;
}

namespace {

using Versions = std::map<uint32_t, FilterArtifactRef>;

std::string readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(IS), {});
}

/// Maps a global (app-major) method id to its method.
class MethodIndex {
public:
  explicit MethodIndex(const std::vector<Program> &Programs)
      : Programs(Programs) {
    size_t N = 0;
    for (const Program &P : Programs) {
      Offset.push_back(N);
      N += P.size();
    }
  }
  const Method &operator[](uint32_t Global) const {
    size_t A = static_cast<size_t>(
                   std::upper_bound(Offset.begin(), Offset.end(), Global) -
                   Offset.begin()) -
               1;
    return Programs[A][Global - Offset[A]];
  }

private:
  const std::vector<Program> &Programs;
  std::vector<size_t> Offset;
};

template <typename T>
void expectEq(ReplayResult &R, const char *What, T Replayed, T Served) {
  if (Replayed == Served)
    return;
  std::ostringstream OS;
  OS << "replay " << What << " " << Replayed << " != served " << Served;
  R.Failures.push_back(OS.str());
}

/// The per-block compile fold of one tier, call by call.  \p Arts is
/// empty for the LS tier (schedule every block).
struct TierReplay {
  TierReplay(const MachineModel &Model, const MethodIndex &Methods,
             const Versions &Arts, ReplayResult &R)
      : Model(Model), Methods(Methods), Arts(Arts), R(R) {}

  const MachineModel &Model;
  const MethodIndex &Methods;
  const Versions &Arts;
  ReplayResult &R;

  SchedContext Ctx;
  DependenceGraph Dag;
  DagBuildScratch DagScratch;
  ListSchedulerScratch SchedScratch;
  FeatureMatrix Matrix;
  std::vector<const BasicBlock *> Blocks, Ungated;
  std::vector<char> Decisions;

  AccumulatingTimer Extract, Decide, Build, Schedule, Simulate;

  void run(const ServiceStats &Served) {
    ListScheduler Scheduler(Model);
    BlockSimulator Sim(Model);
    const bool Filtered = !Arts.empty();
    std::vector<int> &Order = Ctx.orderBuffer();
    uint64_t BlocksCompiled = 0, BlocksScheduled = 0, SchedulingWork = 0,
             FilterWork = 0, FilterLS = 0, FilterNS = 0;

    for (const ServiceStats::CompilePinStat &Pin : Served.Compiles) {
      const Method &M = Methods[Pin.Method];
      Blocks.clear();
      for (const BasicBlock &BB : M)
        Blocks.push_back(&BB);

      uint64_t Work = 0;
      if (Filtered) {
        auto It = Arts.find(Pin.FilterVersion);
        if (It == Arts.end()) {
          R.Failures.push_back("replay: no filter for pinned version " +
                               std::to_string(Pin.FilterVersion));
          return;
        }
        // The feature pass the filter makes, measured on its own: the
        // blocks at or above the artifact's length gate.
        Ungated.clear();
        for (const BasicBlock *BB : Blocks)
          if (static_cast<double>(BB->size()) >= It->second->BBLenGate)
            Ungated.push_back(BB);
        Matrix.clear();
        Extract.start();
        extractFeaturesBatch(Ungated.data(), Ungated.size(), Matrix);
        Extract.stop();
        R.FeatureBlocks += Ungated.size();

        ScheduleFilter F(It->second);
        Decide.start();
        F.shouldScheduleBatch(Blocks, Ctx, Decisions);
        Decide.stop();
        FilterLS += F.numScheduleDecisions();
        FilterNS += F.numSkipDecisions();
        FilterWork += F.workUnits();
        Work += F.workUnits();
      }

      for (size_t B = 0; B != Blocks.size(); ++B) {
        const BasicBlock &BB = *Blocks[B];
        ++BlocksCompiled;
        bool DoSchedule = !Filtered || Decisions[B] != 0;
        uint64_t Cycles = 0;
        if (DoSchedule) {
          ++BlocksScheduled;
          Build.start();
          Dag.build(BB, Model, DagScratch);
          Build.stop();
          Schedule.start();
          uint64_t W = Scheduler.scheduleInto(BB, Dag, SchedScratch, Order);
          Schedule.stop();
          Work += W + Dag.workUnits();
          R.DagEdges += Dag.numEdges();
          ScheduleVerifyResult V = verifySchedule(Dag, Order);
          if (!V.Ok)
            R.Failures.push_back("verifySchedule: " + V.Message);
        }
        Simulate.start();
        Cycles = (DoSchedule && !Order.empty()) ? Sim.simulate(BB, Order, Ctx)
                                                : Sim.simulate(BB, Ctx);
        Simulate.stop();
        R.SimCycles += Cycles;
        if (DoSchedule) {
          // Useful outcome: the schedule lowered the block's cycles.
          bool Useful = Cycles < Sim.simulate(BB, Ctx);
          (Filtered ? R.UsefulLn : R.UsefulLs) += Useful;
          ++(Filtered ? R.ScheduledLn : R.ScheduledLs);
        }
      }
      SchedulingWork += Work;
      expectEq(R, "per-compile SchedulingWork", Work, Pin.SchedulingWork);
    }

    expectEq(R, "BlocksCompiled", BlocksCompiled, Served.BlocksCompiled);
    expectEq(R, "BlocksScheduled", BlocksScheduled, Served.BlocksScheduled);
    expectEq(R, "SchedulingWork", SchedulingWork, Served.SchedulingWork);
    expectEq(R, "FilterWork", FilterWork, Served.FilterWork);
    expectEq(R, "FilterLS", FilterLS, Served.FilterLS);
    expectEq(R, "FilterNS", FilterNS, Served.FilterNS);

    R.SimBlocks += BlocksCompiled;
    R.DagBuilds += BlocksScheduled;
    R.SchedWork += SchedulingWork - FilterWork;
    R.Decisions += FilterLS + FilterNS;
    R.DecisionsLS += FilterLS;
    R.FilterWork += FilterWork;
    R.ExtractNs += Extract.nanoseconds();
    R.DecideNs += Decide.nanoseconds();
    R.DagNs += Build.nanoseconds();
    R.ScheduleNs += Schedule.nanoseconds();
    R.SimulateNs += Simulate.nanoseconds();
  }
};

/// Online: re-trains every swap's snapshot and re-stores the lineage.
/// Returns the artifacts by version for the L/N compile replay.
Versions replayLineage(const Prepared &P, uint64_t StreamSeed,
                       const ServiceStats &LN,
                       const MachineModel &Model, TaskPool &Pool,
                       const MethodIndex &Methods,
                       const std::string &Workload,
                       const std::string &ServeRegistry,
                       const std::string &ReplayRegistry, ReplayResult &R) {
  Versions Arts;
  // The corpus the trainer grew: v1's records, then each compile's serve
  // trace in install order.
  std::vector<BlockRecord> Corpus = P.SeedRecords;
  R.TraceNs += timeNs([&] {
    SchedContext Ctx;
    MethodCompiler MC(Model, Ctx);
    for (const ServiceStats::CompilePinStat &Pin : LN.Compiles)
      MC.traceMethod(Methods[Pin.Method], Corpus);
  });

  FilterRegistry Served(ServeRegistry), Replayed(ReplayRegistry);
  for (const ServiceStats::FilterSwapStat &S : LN.Swaps) {
    RuleSet Rules = P.Rules;
    if (S.Version != 1) {
      if (S.CorpusRecords > Corpus.size()) {
        R.Failures.push_back("replay: swap corpus exceeds the traced corpus");
        return Arts;
      }
      std::vector<BlockRecord> Snapshot(
          Corpus.begin(),
          Corpus.begin() + static_cast<std::ptrdiff_t>(S.CorpusRecords));
      Dataset Labeled;
      R.LabelNs += timeNs([&] {
        Labeled = buildDataset(Snapshot, P.Cfg.RetrainThreshold, "online");
      });
      R.RetrainInstances += Labeled.size();
      R.RetrainNs.push_back(
          timeNs([&] { Rules = Ripper().train(Labeled, Pool); }));
    }
    expectEq(R, "swap RulesHash", rulesFingerprint(Rules), S.RulesHash);
    Arts[S.Version] = makeFilterArtifact(Rules, S.Version, S.ParentVersion,
                                         S.TriggerTick, S.CorpusRecords);

    FilterVersionMeta Meta{S.Version,       S.ParentVersion,
                           S.TriggerTick,   StreamSeed,
                           S.CorpusRecords, P.Cfg.RetrainThreshold,
                           Model.getName(), Workload};
    bool Ok = false;
    R.StoreNs += timeNs([&] { Ok = Replayed.store(Meta, Rules); });
    ++R.Stores;
    if (!Ok) {
      ++R.StoreFailures;
      R.Failures.push_back("replay registry store failed");
    } else if (readFile(Replayed.entryPath(S.Version)) !=
               readFile(Served.entryPath(S.Version))) {
      R.Failures.push_back("registry bytes differ at v" +
                           std::to_string(S.Version));
    }
  }
  return Arts;
}

} // namespace

ReplayResult perfbench::replayServe(const Prepared &P, uint64_t StreamSeed,
                                    const MultiAppComparison &Served,
                                    const MachineModel &Model, TaskPool &Pool,
                                    const std::string &Workload,
                                    const std::string &ServeRegistry,
                                    const std::string &ReplayRegistry) {
  ReplayResult R;

  // runtime: the two services of runMultiAppComparison, one call at a time.
  ServiceConfig Cfg = P.Cfg;
  Cfg.StreamSeed = StreamSeed;
  const bool Online = Cfg.Online;
  Cfg.OptimizingPolicy = SchedulingPolicy::Always;
  Cfg.Online = false;
  std::optional<MultiAppService> Always;
  R.ConstructNs = timeNs([&] {
    Always.emplace(P.Apps, P.Programs, Model, Cfg, nullptr, Pool);
  });
  MultiAppStats LS, LN;
  R.RunLsNs = timeNs([&] { LS = Always->run(); });
  Cfg.OptimizingPolicy = SchedulingPolicy::Filtered;
  Cfg.Online = Online;
  MultiAppService Filtered(P.Apps, P.Programs, Model, Cfg, &P.Rules, Pool,
                           &Always->baselineCosts());
  if (Online)
    Filtered.setSeedCorpus(P.SeedRecords);
  R.RunLnNs = timeNs([&] { LN = Filtered.run(); });
  if (LS != Served.Always)
    R.Failures.push_back("replayed LS-tier run differs from the serve");
  if (LN != Served.Filtered)
    R.Failures.push_back("replayed L/N-tier run differs from the serve");

  // ml + io, then the compile fold of both tiers.
  MethodIndex Methods(P.Programs);
  const ServiceStats &LnTotal = Served.Filtered.Total;
  Versions Arts;
  if (Online)
    Arts = replayLineage(P, StreamSeed, LnTotal, Model, Pool, Methods, Workload,
                         ServeRegistry, ReplayRegistry, R);
  else
    Arts[0] = makeFilterArtifact(P.Rules, 0);

  const Versions None;
  TierReplay(Model, Methods, None, R).run(Served.Always.Total);
  TierReplay(Model, Methods, Arts, R).run(LnTotal);
  return R;
}
