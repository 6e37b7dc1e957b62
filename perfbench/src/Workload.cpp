//===- perfbench/src/Workload.cpp - The three named serve workloads ---------===//

#include "Workload.h"

#include "harness/Experiments.h"
#include "io/TraceStore.h"
#include "support/Rng.h"
#include "workloads/WorkloadFamily.h"

#include "Measure.h"

using namespace perfbench;

const std::vector<Workload> &perfbench::allWorkloads() {
  static const std::vector<Workload> All = [] {
    const std::vector<std::pair<std::string, double>> Steady = {
        {"specjvm98", 1.0}, {"ptrchase", 1.0}, {"fpkernel", 1.0}};

    // Tail percentiles (see Workload::TailPercentile) for the serves a
    // 30 s run gives on the unloaded baseline host: steady-mix 96,
    // compile-storm 400, online-mix 24.
    Workload SteadyMix{"steady-mix", Steady, ServiceConfig(), 1};
    SteadyMix.Cfg.Invocations = 2000000;
    SteadyMix.TailPercentile = 89;

    Workload Storm{"compile-storm", {}, ServiceConfig(), 2};
    for (const WorkloadFamily *F : WorkloadRegistry::instance().families())
      Storm.Mix.push_back({F->name(), 1.0});
    Storm.Cfg.HotThreshold = 1;
    Storm.Cfg.DrainPerEpoch = 64;
    Storm.Cfg.QueueCap = 4096;
    Storm.TailPercentile = 97;

    Workload Online{"online-mix", Steady, ServiceConfig(), 3};
    Online.Cfg.Online = true;
    Online.Streams = 12; // fewer methods turn hot: more streams to average
    Online.TailPercentile = 58; // ~24 serves: no higher tail has ten beyond
    return std::vector<Workload>{SteadyMix, Storm, Online};
  }();
  return All;
}

const Workload *perfbench::findWorkload(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

std::string perfbench::mixName(const Workload &W) {
  std::string S;
  for (const auto &[Family, Weight] : W.Mix)
    S += (S.empty() ? "" : ",") + Family;
  return S;
}

uint64_t perfbench::streamSeed(const Workload &W, uint64_t Seed,
                               unsigned Stream) {
  return Rng(Seed).fork(W.StreamId).fork(Stream).next64();
}

Prepared perfbench::prepare(const Workload &W, const MachineModel &Model,
                            ExperimentEngine &Engine, SetupSpans &Spans) {
  Prepared P;
  P.Apps = expandWorkloadMix(W.Mix);
  P.Cfg = W.Cfg;
  P.Cfg.RetrainThreshold = 0.0;

  std::vector<BenchmarkSpec> Suite;
  for (const AppSpec &A : P.Apps)
    Suite.push_back(A.Spec);

  std::vector<BenchmarkRun> Runs;
  Spans.SuiteDataNs +=
      timeNs([&] { Runs = Engine.generateSuiteData(Suite, Model); });
  std::vector<Dataset> Labeled;
  Spans.LabelNs += timeNs(
      [&] { Labeled = Engine.labelSuite(Runs, P.Cfg.RetrainThreshold); });
  Dataset Train(mixName(W));
  for (const Dataset &D : Labeled)
    Train.append(D);
  P.TrainInstances = Train.size();
  Spans.TrainNs +=
      timeNs([&] { P.Rules = ripperLearner(Engine.pool())(Train); });

  for (BenchmarkRun &Run : Runs) {
    if (P.Cfg.Online)
      P.SeedRecords.insert(P.SeedRecords.end(), Run.Records.begin(),
                           Run.Records.end());
    P.Programs.push_back(std::move(Run.Prog));
  }
  return P;
}

MultiAppComparison perfbench::serve(const Workload &W, const Prepared &P,
                                    uint64_t StreamSeed,
                                    const MachineModel &Model, TaskPool &Pool,
                                    FilterRegistry *Registry) {
  ServiceConfig Cfg = P.Cfg;
  Cfg.StreamSeed = StreamSeed;
  std::vector<BlockRecord> Seed;
  if (Cfg.Online)
    Seed = P.SeedRecords;
  return runMultiAppComparison(P.Apps, P.Programs, Model, Cfg, P.Rules, Pool,
                               nullptr, std::move(Seed), Registry, mixName(W),
                               Model.getName());
}

namespace {

void putStats(std::string &B, const ServiceStats &S) {
  for (uint64_t V :
       {S.Invocations, S.Epochs, S.SampledInvocations, S.Promotions,
        S.Deferred, S.CompiledMethods, S.MethodsOptimized, S.MethodsTotal,
        S.MaxQueueDepth, S.FinalQueueDepth, S.BaselineInvocations,
        S.OptimizedInvocations, S.SchedulingWork, S.FilterWork,
        S.BlocksCompiled, S.BlocksScheduled, S.FilterLS, S.FilterNS,
        S.Retrains, S.CorpusRecords,
        static_cast<uint64_t>(S.FinalFilterVersion)})
    wire::putU64(B, V);
  wire::putF64(B, S.MeanQueueDepth);
  wire::putF64(B, S.AppTime);
  wire::putF64(B, S.BaselineAppTime);
  wire::putU64(B, S.Swaps.size());
  for (const ServiceStats::FilterSwapStat &W : S.Swaps)
    for (uint64_t V : {W.Epoch, W.Tick, static_cast<uint64_t>(W.Version),
                       static_cast<uint64_t>(W.ParentVersion), W.TriggerTick,
                       W.CorpusRecords, W.RulesHash})
      wire::putU64(B, V);
  wire::putU64(B, S.Compiles.size());
  for (const ServiceStats::CompilePinStat &C : S.Compiles)
    for (uint64_t V : {C.Epoch, static_cast<uint64_t>(C.Method),
                       static_cast<uint64_t>(C.FilterVersion),
                       C.SchedulingWork})
      wire::putU64(B, V);
}

void putMulti(std::string &B, const MultiAppStats &M) {
  putStats(B, M.Total);
  wire::putU64(B, M.PerApp.size());
  for (size_t A = 0; A != M.PerApp.size(); ++A) {
    wire::putString(B, M.AppNames[A]);
    putStats(B, M.PerApp[A]);
  }
}

} // namespace

uint64_t perfbench::statsDigest(const MultiAppComparison &Cmp,
                                const RuleSet &Rules) {
  std::string B;
  wire::putU64(B, rulesFingerprint(Rules));
  putMulti(B, Cmp.Always);
  putMulti(B, Cmp.Filtered);
  wire::putF64(B, Cmp.RecoupedWorkFraction);
  for (double R : Cmp.PerAppRecoup)
    wire::putF64(B, R);
  return wire::fnv1a(B.data(), B.size());
}

bool perfbench::sameComparison(const MultiAppComparison &A,
                               const MultiAppComparison &B) {
  // Bitwise double comparison, like ServiceStats's operator==.
  return A.Always == B.Always && A.Filtered == B.Filtered &&
         A.RecoupedWorkFraction == B.RecoupedWorkFraction &&
         A.PerAppRecoup == B.PerAppRecoup;
}

std::string perfbench::hex64(uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[static_cast<size_t>(I)] = Digits[V & 0xf];
  return Out;
}
