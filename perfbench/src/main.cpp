//===- perfbench/src/main.cpp - End-to-end and per-layer serve benchmark ----===//
//
// Runs the named serve workloads (see Workload.h) in one process over one
// TaskPool, in a closed loop: one client replays one deterministic
// invocation stream at a time through runMultiAppComparison.
//
//   perfbench --workload steady-mix|compile-storm|online-mix[,...]|all
//             --seed N --seconds S --trace 0|1 --out RESULT.json
//             --work DIR --expected DIGESTS.txt
//             [--jobs N] [--setup-reps N] [--streams N] [--max-serves N]
//
// Per workload: one untimed set-up warms the corpus cache (owned by the
// benchmark, under --work), then --setup-reps timed set-ups give
// setup_s, then serves go round the workload's panel of seeded streams,
// in whole rounds, for about --seconds.  With --trace 1 each round ends
// with a second serve of the first four streams, each followed by a
// serial per-layer replay (Replay.h); against the same streams' untraced
// serves it gives trace.overhead_pct.  --streams and --max-serves cut a
// run short for quick checks.
//
// Every serve passes a correctness gate or counts as failed: stats equal
// to the first serve of the same stream, equal to the pinned digest at
// the default seed, a clean registry, and (traced serves) an exact
// replay.  Any failure makes the exit code 1.
//
// Deterministic values go to stdout; wall-clock values only to stderr and
// the result JSON, written with tools/BenchJson.h's checked writer.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "io/FilterRegistry.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"
#include "target/MachineModel.h"

#include "Measure.h"
#include "Replay.h"
#include "Workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Options {
  std::vector<const Workload *> Workloads;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10.0;
  bool Trace = false;
  unsigned Jobs = 4;
  unsigned SetupReps = 21;
  unsigned Streams = 0;   ///< 0: the workload's whole panel
  uint64_t MaxServes = 0; ///< 0: whole rounds for about --seconds
  std::string Out, Work, Expected;
};

/// Pinned digests by (workload, stream index).
using DigestTable = std::map<std::pair<std::string, unsigned>, uint64_t>;

/// Streams of a panel that a traced round serves a second time, replayed.
constexpr unsigned TracedStreams = 4;

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// One recorded span: a set-up (Serve = -1), a serve, or one layer's
/// busy time within a serve's replay (with its call count).
struct Span {
  std::string Name;
  long Serve = -1;
  double StartS = 0.0;
  double DurS = 0.0;
  uint64_t Calls = 0;
};

struct Report {
  const Workload *W = nullptr;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< the first few, for the JSON
  std::vector<std::optional<uint64_t>> Digests; ///< per stream
  std::vector<Metric> EndToEnd, PerLayer;
  Tail ServeTail;
  size_t ServeSamples = 0, TracedSamples = 0;
  std::vector<Span> Spans;
  std::string Summary; ///< deterministic: a function of (workload, seed)
};

std::optional<uint64_t> parseU64(const std::string &S) {
  if (S.empty() || S.size() > 19 ||
      S.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::stoull(S);
}

bool parseOptions(const CommandLine &CL, Options &O) {
  std::string Names = CL.get("workload");
  if (Names == "all") {
    for (const Workload &W : allWorkloads())
      O.Workloads.push_back(&W);
  } else {
    std::stringstream SS(Names);
    for (std::string N; std::getline(SS, N, ',');) {
      const Workload *W = findWorkload(N);
      if (!W) {
        std::cerr << "error: unknown workload '" << N
                  << "' (steady-mix, compile-storm, online-mix or all)\n";
        return false;
      }
      O.Workloads.push_back(W);
    }
  }
  if (O.Workloads.empty()) {
    std::cerr << "error: --workload is required\n";
    return false;
  }

  auto Count = [&](const char *Flag, uint64_t Default, uint64_t Lo,
                   uint64_t Hi) -> std::optional<uint64_t> {
    if (!CL.has(Flag))
      return Default;
    std::optional<uint64_t> V = parseU64(CL.get(Flag));
    if (!V || *V < Lo || *V > Hi) {
      std::cerr << "error: --" << Flag << " expects an integer in [" << Lo
                << ", " << Hi << "] (got '" << CL.get(Flag) << "')\n";
      return std::nullopt;
    }
    return V;
  };
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  std::optional<uint64_t> Seed = Count("seed", DefaultSeed, 0, ~0ull >> 1);
  std::optional<uint64_t> Seconds = Count("seconds", 10, 0, 3600);
  std::optional<uint64_t> Trace = Count("trace", 0, 0, 1);
  std::optional<uint64_t> Jobs = Count("jobs", std::min(4u, Hw), 1, 256);
  std::optional<uint64_t> Reps = Count("setup-reps", 21, 1, 1000);
  std::optional<uint64_t> Streams = Count("streams", 0, 1, 1000);
  std::optional<uint64_t> Max = Count("max-serves", 0, 0, 1000000);
  if (!Seed || !Seconds || !Trace || !Jobs || !Reps || !Streams || !Max)
    return false;
  O.Streams = static_cast<unsigned>(*Streams);
  O.Seed = *Seed;
  O.Seconds = static_cast<double>(*Seconds);
  O.Trace = *Trace == 1;
  O.Jobs = static_cast<unsigned>(*Jobs);
  O.SetupReps = static_cast<unsigned>(*Reps);
  O.MaxServes = *Max;
  O.Out = CL.get("out");
  O.Work = CL.get("work");
  O.Expected = CL.get("expected");
  if (O.Out.empty() || O.Work.empty() || O.Expected.empty()) {
    std::cerr << "error: --out, --work and --expected are required\n";
    return false;
  }
  return true;
}

/// "steady-mix 0 0123456789abcdef" lines (workload, stream, digest); '#'
/// starts a comment.
std::optional<DigestTable> loadExpected(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::cerr << "error: cannot read expected digests " << Path << "\n";
    return std::nullopt;
  }
  DigestTable Digests;
  for (std::string Line; std::getline(IS, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name, Stream, Hex;
    LS >> Name >> Stream >> Hex;
    std::optional<uint64_t> J = parseU64(Stream);
    if (!J || *J > 1000 || Hex.size() != 16 ||
        Hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      std::cerr << "error: malformed digest line in " << Path << ": " << Line
                << "\n";
      return std::nullopt;
    }
    Digests[{Name, static_cast<unsigned>(*J)}] = std::stoull(Hex, nullptr, 16);
  }
  return Digests;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += (static_cast<unsigned char>(C) < 0x20) ? ' ' : C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double ms(int64_t Ns) { return static_cast<double>(Ns) * 1e-6; }

/// What the traced serves and set-ups measured, per sample.
struct LayerSamples {
  std::vector<double> ServeMs, LoopMs, NsPerInv, RetrainEachMs,
      RetrainTotalMs, SuiteMs, HarnessLabelMs, TrainMs, GenerateMs;
  std::vector<ReplayResult> Replays;
  uint64_t GenMethods = 0, GenBlocks = 0;
  double CorpusHits = 0, CorpusMisses = 0;
  uint64_t TracedBlocks = 0, StoreFailures = 0, TrainInstances = 0;
  double OverheadPct = 0;
};

/// The per-layer metrics: times are medians over traced serves, counts
/// are means per serve over the traced serves (the same streams in every
/// round, so the means repeat exactly) or over the panel.
void addLayerMetrics(Report &R, const LayerSamples &L,
                     const std::vector<const MultiAppComparison *> &Panel) {
  auto Add = [&](const std::string &Name, double V, const char *Unit) {
    R.PerLayer.push_back({Name, V, Unit});
  };
  auto MedianMs = [&](int64_t ReplayResult::*F) {
    std::vector<double> V;
    for (const ReplayResult &Rep : L.Replays)
      V.push_back(ms(Rep.*F));
    return median(V);
  };
  auto Mean = [&](uint64_t ReplayResult::*F) {
    double Sum = 0;
    for (const ReplayResult &Rep : L.Replays)
      Sum += static_cast<double>(Rep.*F);
    return safeRatio(Sum, static_cast<double>(L.Replays.size()));
  };
  auto PanelMean = [&](auto Field) {
    double Sum = 0;
    for (const MultiAppComparison *C : Panel)
      Sum += Field(C->Always.Total) + Field(C->Filtered.Total);
    return safeRatio(Sum, static_cast<double>(Panel.size()));
  };
  // ns per unit of work: median time over mean count.
  auto NsPer = [&](int64_t ReplayResult::*T, uint64_t ReplayResult::*N) {
    return safeRatio(MedianMs(T) * 1e6, Mean(N));
  };

  Add("runtime.serve_ms", median(L.ServeMs), "ms");
  Add("runtime.construct_ms", MedianMs(&ReplayResult::ConstructNs), "ms");
  Add("runtime.run_ms.ls", MedianMs(&ReplayResult::RunLsNs), "ms");
  Add("runtime.run_ms.ln", MedianMs(&ReplayResult::RunLnNs), "ms");
  Add("runtime.loop_ms_est", median(L.LoopMs), "ms");
  Add("runtime.ns_per_invocation", median(L.NsPerInv), "ns");
  Add("runtime.invocations",
      PanelMean([](const ServiceStats &S) { return double(S.Invocations); }),
      "count");
  Add("runtime.promotions",
      PanelMean([](const ServiceStats &S) { return double(S.Promotions); }),
      "count");
  Add("runtime.deferred",
      PanelMean([](const ServiceStats &S) { return double(S.Deferred); }),
      "count");
  Add("runtime.compiled_methods", PanelMean([](const ServiceStats &S) {
        return double(S.CompiledMethods);
      }),
      "count");
  Add("runtime.epochs",
      PanelMean([](const ServiceStats &S) { return double(S.Epochs); }),
      "count");
  double MaxDepth = 0;
  for (const MultiAppComparison *C : Panel)
    MaxDepth = std::max({MaxDepth, double(C->Always.Total.MaxQueueDepth),
                         double(C->Filtered.Total.MaxQueueDepth)});
  Add("runtime.queue_depth_max", MaxDepth, "count");
  Add("runtime.queue_depth_mean", 0.5 * PanelMean([](const ServiceStats &S) {
                                    return S.MeanQueueDepth;
                                  }),
      "count");

  Add("features.blocks", Mean(&ReplayResult::FeatureBlocks), "count");
  Add("features.extract_ms", MedianMs(&ReplayResult::ExtractNs), "ms");
  Add("features.extract_ns_per_block",
      NsPer(&ReplayResult::ExtractNs, &ReplayResult::FeatureBlocks), "ns");

  Add("filter.decisions", Mean(&ReplayResult::Decisions), "count");
  Add("filter.decide_ms", MedianMs(&ReplayResult::DecideNs), "ms");
  Add("filter.decide_ns_per_block",
      NsPer(&ReplayResult::DecideNs, &ReplayResult::Decisions), "ns");
  Add("filter.ls_ratio",
      safeRatio(Mean(&ReplayResult::DecisionsLS),
                Mean(&ReplayResult::Decisions)),
      "ratio");
  Add("filter.work_units", Mean(&ReplayResult::FilterWork), "count");

  Add("sched.dag_builds", Mean(&ReplayResult::DagBuilds), "count");
  Add("sched.dag_edges", Mean(&ReplayResult::DagEdges), "count");
  Add("sched.dag_build_ms", MedianMs(&ReplayResult::DagNs), "ms");
  Add("sched.dag_build_ns_per_block",
      NsPer(&ReplayResult::DagNs, &ReplayResult::DagBuilds), "ns");
  Add("sched.schedules", Mean(&ReplayResult::DagBuilds), "count");
  Add("sched.schedule_ms", MedianMs(&ReplayResult::ScheduleNs), "ms");
  Add("sched.schedule_ns_per_block",
      NsPer(&ReplayResult::ScheduleNs, &ReplayResult::DagBuilds), "ns");
  Add("sched.work_units", Mean(&ReplayResult::SchedWork), "count");
  Add("sched.useful_ratio.ls",
      safeRatio(Mean(&ReplayResult::UsefulLs),
                Mean(&ReplayResult::ScheduledLs)),
      "ratio");
  Add("sched.useful_ratio.ln",
      safeRatio(Mean(&ReplayResult::UsefulLn),
                Mean(&ReplayResult::ScheduledLn)),
      "ratio");

  Add("sim.blocks", Mean(&ReplayResult::SimBlocks), "count");
  Add("sim.cycles", Mean(&ReplayResult::SimCycles), "count");
  Add("sim.simulate_ms", MedianMs(&ReplayResult::SimulateNs), "ms");
  Add("sim.simulate_ns_per_block",
      NsPer(&ReplayResult::SimulateNs, &ReplayResult::SimBlocks), "ns");

  double Retrains = 0;
  for (const ReplayResult &Rep : L.Replays)
    Retrains += static_cast<double>(Rep.RetrainNs.size());
  Add("ml.train_ms", median(L.TrainMs), "ms");
  Add("ml.train_instances", double(L.TrainInstances), "count");
  Add("ml.retrains", safeRatio(Retrains, double(L.Replays.size())), "count");
  Add("ml.retrain_ms_p50", median(L.RetrainEachMs), "ms");
  Add("ml.retrain_ms_total", median(L.RetrainTotalMs), "ms");
  Add("ml.retrain_instances_total", Mean(&ReplayResult::RetrainInstances),
      "count");
  Add("ml.retrain_ns_per_instance",
      safeRatio(median(L.RetrainTotalMs) * 1e6,
                Mean(&ReplayResult::RetrainInstances)),
      "ns");
  Add("ml.label_ms_total", MedianMs(&ReplayResult::LabelNs), "ms");

  Add("io.corpus_hits", L.CorpusHits, "count");
  Add("io.corpus_misses", L.CorpusMisses, "count");
  Add("io.registry_stores", Mean(&ReplayResult::Stores), "count");
  Add("io.registry_store_failures", double(L.StoreFailures), "count");
  Add("io.registry_store_ms", MedianMs(&ReplayResult::StoreNs), "ms");

  Add("harness.suite_data_ms", median(L.SuiteMs), "ms");
  Add("harness.traced_blocks", double(L.TracedBlocks), "count");
  Add("harness.label_ms", median(L.HarnessLabelMs), "ms");
  Add("workloads.generate_ms", median(L.GenerateMs), "ms");
  Add("workloads.methods", double(L.GenMethods), "count");
  Add("workloads.blocks", double(L.GenBlocks), "count");

  Add("trace.overhead_pct", L.OverheadPct, "%");
}

/// The stdout report of one workload: deterministic fields only.
std::string summarize(const Report &R, const Prepared &P, const Options &O,
                      const std::vector<const MultiAppComparison *> &Panel,
                      const DigestTable &Expected) {
  const Workload &W = *R.W;
  const ServiceConfig &Cfg = P.Cfg;
  std::ostringstream OS;
  OS << W.Name << ": " << mixName(W) << ", " << P.Apps.size() << " apps, "
     << Cfg.Invocations << " invocations per tier and stream\n  hot threshold "
     << Cfg.HotThreshold << ", queue cap " << Cfg.QueueCap << ", drain "
     << Cfg.DrainPerEpoch << "/epoch, epoch " << Cfg.EpochLen
     << (Cfg.Online ? ", online, retrain every " +
                          std::to_string(Cfg.RetrainEvery)
                    : std::string(", static filter"))
     << "; v1 trained on " << P.TrainInstances << " instances\n";
  OS << "  seed " << O.Seed << ", " << R.Digests.size()
     << " streams: stream seed, LS work -> L/N work, recouped, app time "
        "ratio, retrains, digest\n";
  for (unsigned J = 0; J != R.Digests.size(); ++J) {
    OS << "    " << J << " " << hex64(streamSeed(W, O.Seed, J));
    if (!R.Digests[J]) {
      OS << " (not served)\n";
      continue;
    }
    const MultiAppComparison &C = *Panel[J];
    const ServiceStats &LS = C.Always.Total, &LN = C.Filtered.Total;
    auto It = Expected.find({W.Name, J});
    OS << " " << LS.SchedulingWork << " -> " << LN.SchedulingWork << ", "
       << jsonNumber(100.0 * C.RecoupedWorkFraction) << "%, "
       << jsonNumber(LN.AppTime / LN.BaselineAppTime) << ", " << LN.Retrains
       << ", " << hex64(*R.Digests[J])
       << (O.Seed != DefaultSeed      ? ""
           : It == Expected.end()     ? " (NOT PINNED)"
           : It->second == *R.Digests[J] ? " (pinned)"
                                         : " (DIFFERS from pinned)")
       << "\n";
  }
  for (const Metric &M : R.EndToEnd)
    if (M.Name == "app_time_ratio" || M.Name == "recouped_work_pct")
      OS << "  " << M.Name << " " << jsonNumber(M.Value) << "\n";
  if (O.Trace) {
    // Counts and ratios of counts repeat exactly; times go to the JSON.
    OS << "  per-layer counts (mean per serve):\n";
    for (const Metric &M : R.PerLayer)
      if (M.Unit == "count" || M.Unit == "ratio")
        OS << "    " << M.Name << " " << jsonNumber(M.Value) << "\n";
  }
  return OS.str();
}

Report runWorkload(const Workload &W, const Options &O,
                   const DigestTable &Expected, ExperimentEngine &Engine,
                   const MachineModel &Model, Stopwatch &Clock) {
  Report R;
  R.W = &W;
  const unsigned S = O.Streams ? std::min(O.Streams, W.Streams) : W.Streams;
  std::vector<uint64_t> Seeds;
  for (unsigned J = 0; J != S; ++J)
    Seeds.push_back(streamSeed(W, O.Seed, J));
  TaskPool &Pool = Engine.pool();
  CorpusCache &Cache = *Engine.corpusCache();
  const fs::path RegistryRoot = fs::path(O.Work) / "registry" / W.Name;
  const std::string ServeDir = (RegistryRoot / "serve").string();
  const std::string ReplayDir = (RegistryRoot / "replay").string();
  std::error_code EC;
  fs::remove_all(RegistryRoot, EC);
  auto Fail = [&](const std::string &Msg) {
    std::cerr << "FAILED " << W.Name << ": " << Msg << "\n";
    if (R.Failures.size() < 16)
      R.Failures.push_back(Msg);
  };

  // Warm-up: fills the corpus cache on a cold checkout, untimed -- what
  // an sf-serve user has paid after the first run.
  SetupSpans Discard;
  prepare(W, Model, Engine, Discard);

  LayerSamples L;
  CorpusCache::Stats Before = Cache.stats();
  uint64_t TracedBefore = Engine.tracedBlocks();
  std::vector<double> SetupS;
  std::optional<Prepared> P;
  bool SetupFailed = false;
  for (unsigned I = 0; I != O.SetupReps; ++I) {
    SetupSpans Sp;
    double Start = Clock.seconds();
    int64_t Ns = timeNs([&] { P = prepare(W, Model, Engine, Sp); });
    SetupS.push_back(static_cast<double>(Ns) * 1e-9);
    R.Spans.push_back({"setup", -1, Start, SetupS.back(), 0});
    L.SuiteMs.push_back(ms(Sp.SuiteDataNs));
    L.HarnessLabelMs.push_back(ms(Sp.LabelNs));
    L.TrainMs.push_back(ms(Sp.TrainNs));
    if (!O.Trace)
      continue;
    // The workloads layer on its own: the synthesis set-up got through
    // the experiment engine, replayed serially.
    std::vector<Program> Gen;
    L.GenerateMs.push_back(
        ms(timeNs([&] { Gen = generateMixPrograms(P->Apps); })));
    L.GenMethods = L.GenBlocks = 0;
    bool Same = Gen.size() == P->Programs.size();
    for (size_t A = 0; A != Gen.size(); ++A) {
      L.GenMethods += Gen[A].size();
      L.GenBlocks += Gen[A].totalBlocks();
      Same = Same && Gen[A].size() == P->Programs[A].size() &&
             Gen[A].totalBlocks() == P->Programs[A].totalBlocks();
    }
    if (!Same) {
      Fail("set-up: generateMixPrograms differs from the engine's programs");
      SetupFailed = true;
    }
  }
  CorpusCache::Stats After = Cache.stats();
  L.CorpusHits = double(After.Hits - Before.Hits) / O.SetupReps;
  L.CorpusMisses = double(After.Misses - Before.Misses) / O.SetupReps;
  L.TracedBlocks = Engine.tracedBlocks() - TracedBefore;
  L.TrainInstances = P->TrainInstances;

  // The serve loop, in whole rounds: every stream of the panel once,
  // then (tracing) the first T streams again, each with a replay.  It
  // stops at the round boundary nearest to --seconds.
  std::vector<double> ServeS, CpuS, PlainS, TracedS;
  std::vector<std::optional<MultiAppComparison>> First(S);
  R.Digests.assign(S, std::nullopt);
  const unsigned T = O.Trace ? std::min(S, TracedStreams) : 0;
  const uint64_t Round = S + T;
  const double LoopStart = Clock.seconds();
  for (uint64_t I = 0;; ++I) {
    if (O.MaxServes ? I >= O.MaxServes : I % Round == 0 && I != 0) {
      double Elapsed = Clock.seconds() - LoopStart;
      double PerRound = Elapsed / static_cast<double>(I / Round);
      if (O.MaxServes || Elapsed >= O.Seconds - PerRound / 2)
        break;
    }
    const uint64_t K = I % Round;
    const bool Traced = K >= S;
    const unsigned J = static_cast<unsigned>(Traced ? K - S : K);
    std::optional<FilterRegistry> Registry;
    if (P->Cfg.Online) {
      fs::remove_all(ServeDir, EC);
      Registry.emplace(ServeDir);
    }

    MultiAppComparison Cmp;
    double Start = Clock.seconds();
    double Cpu0 = processCpuSeconds();
    int64_t Ns = timeNs([&] {
      Cmp = serve(W, *P, Seeds[J], Model, Pool,
                  Registry ? &*Registry : nullptr);
    });
    double Cpu = processCpuSeconds() - Cpu0;
    double Wall = static_cast<double>(Ns) * 1e-9;
    ServeS.push_back(Wall);
    CpuS.push_back(Cpu);
    if (Traced)
      TracedS.push_back(Wall);
    else if (J < T)
      PlainS.push_back(Wall);
    R.Spans.push_back({"serve", long(I), Start, Wall, 0});

    // The correctness gate.
    std::vector<std::string> Why;
    uint64_t Digest = statsDigest(Cmp, P->Rules);
    if (!First[J]) {
      First[J] = Cmp;
      R.Digests[J] = Digest;
    } else if (!sameComparison(Cmp, *First[J])) {
      Why.push_back("stats differ from the stream's first serve");
    }
    if (O.Seed == DefaultSeed) {
      auto It = Expected.find({W.Name, J});
      if (It == Expected.end() || It->second != Digest)
        Why.push_back("digest " + hex64(Digest) + " != pinned " +
                      (It == Expected.end() ? "(none)" : hex64(It->second)));
    }
    if (Registry && Registry->stats().StoreFailures) {
      L.StoreFailures += Registry->stats().StoreFailures;
      Why.push_back("registry store failed");
    }

    if (Traced) {
      fs::remove_all(ReplayDir, EC);
      double RStart = Clock.seconds();
      ReplayResult Rep = replayServe(*P, Seeds[J], Cmp, Model, Pool,
                                     mixName(W), ServeDir, ReplayDir);
      L.StoreFailures += Rep.StoreFailures;
      Why.insert(Why.end(), Rep.Failures.begin(), Rep.Failures.end());
      int64_t RetrainNs = 0;
      for (int64_t E : Rep.RetrainNs) {
        L.RetrainEachMs.push_back(ms(E));
        RetrainNs += E;
      }
      L.ServeMs.push_back(ms(Ns));
      L.LoopMs.push_back(ms(Ns - Rep.compileAndRetrainNs()));
      L.NsPerInv.push_back(safeRatio(double(Ns),
                                     double(Cmp.Always.Total.Invocations +
                                            Cmp.Filtered.Total.Invocations)));
      L.RetrainTotalMs.push_back(ms(RetrainNs));
      for (const auto &[Name, Busy, Calls] :
           {std::tuple<const char *, int64_t, uint64_t>{
                "runtime.construct", Rep.ConstructNs, 1},
            {"runtime.run.ls", Rep.RunLsNs, 1},
            {"runtime.run.ln", Rep.RunLnNs, 1},
            {"runtime.trace", Rep.TraceNs, Cmp.Filtered.Total.CompiledMethods},
            {"ml.label", Rep.LabelNs, Rep.RetrainNs.size()},
            {"ml.retrain", RetrainNs, Rep.RetrainNs.size()},
            {"io.registry_store", Rep.StoreNs, Rep.Stores},
            {"features.extract", Rep.ExtractNs, Rep.FeatureBlocks},
            {"filter.decide", Rep.DecideNs, Rep.Decisions},
            {"sched.dag_build", Rep.DagNs, Rep.DagBuilds},
            {"sched.schedule", Rep.ScheduleNs, Rep.DagBuilds},
            {"sim.simulate", Rep.SimulateNs, Rep.SimBlocks}})
        R.Spans.push_back(
            {Name, long(I), RStart, static_cast<double>(Busy) * 1e-9, Calls});
      L.Replays.push_back(std::move(Rep));
    }

    ++R.Attempted;
    if (!Why.empty())
      ++R.Failed;
    for (const std::string &Msg : Why)
      Fail("serve " + std::to_string(I) + " (stream " + std::to_string(J) +
           "): " + Msg);
  }
  if (SetupFailed)
    R.Failed = std::max<uint64_t>(R.Failed, 1);
  fs::remove_all(RegistryRoot, EC);

  // End-to-end metrics; the deterministic ones fold over the panel.
  std::vector<const MultiAppComparison *> Panel;
  double LsWork = 0, LnWork = 0, AppTime = 0, BaseTime = 0;
  for (const std::optional<MultiAppComparison> &C : First) {
    Panel.push_back(C ? &*C : nullptr);
    if (!C)
      continue;
    LsWork += double(C->Always.Total.SchedulingWork);
    LnWork += double(C->Filtered.Total.SchedulingWork);
    AppTime += C->Filtered.Total.AppTime;
    BaseTime += C->Filtered.Total.BaselineAppTime;
  }
  R.ServeTail = tailOf(ServeS, W.TailPercentile);
  R.ServeSamples = ServeS.size();
  R.TracedSamples = TracedS.size();
  auto Add = [&](const char *Name, double V, const char *Unit) {
    R.EndToEnd.push_back({Name, V, Unit});
  };
  Add("setup_s", median(SetupS), "s");
  Add("serve_s_p50", median(ServeS), "s");
  Add("serve_s_tail", R.ServeTail.Value, "s");
  Add("serve_cpu_s_p50", median(CpuS), "s");
  Add("peak_rss_mb", peakRssMb(), "MiB");
  Add("app_time_ratio", safeRatio(AppTime, BaseTime), "ratio");
  Add("recouped_work_pct", 100.0 * safeRatio(LsWork - LnWork, LsWork), "%");
  Add("failed_op_ratio", safeRatio(double(R.Failed), double(R.Attempted)),
      "ratio");

  std::vector<const MultiAppComparison *> Served;
  for (const MultiAppComparison *C : Panel)
    if (C)
      Served.push_back(C);
  if (O.Trace) {
    L.OverheadPct =
        100.0 * (safeRatio(median(TracedS), median(PlainS)) - 1.0);
    addLayerMetrics(R, L, Served);
  }
  R.Summary = summarize(R, *P, O, Panel, Expected);
  return R;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I != Ms.size(); ++I)
    S += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
         jsonNumber(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) +
         "}";
  return S + "}";
}

std::string resultJson(const Options &O, const std::vector<Report> &Rs) {
  std::ostringstream OS;
  OS << "{\n  \"seed\": " << O.Seed << ",\n  \"jobs\": " << O.Jobs
     << ",\n  \"trace\": " << (O.Trace ? 1 : 0) << ",\n  \"workloads\": {";
  for (size_t I = 0; I != Rs.size(); ++I) {
    const Report &R = Rs[I];
    OS << (I ? "," : "") << "\n    " << jsonString(R.W->Name) << ": {\n"
       << "      \"attempted\": " << R.Attempted << ",\n"
       << "      \"failed\": " << R.Failed << ",\n"
       << "      \"serve_samples\": " << R.ServeSamples << ",\n"
       << "      \"traced_samples\": " << R.TracedSamples << ",\n"
       << "      \"serve_tail_percentile\": " << R.ServeTail.Percentile
       << ",\n      \"serve_tail_beyond\": " << R.ServeTail.Beyond << ",\n"
       << "      \"digests\": [";
    for (size_t J = 0; J != R.Digests.size(); ++J)
      OS << (J ? ", " : "")
         << (R.Digests[J] ? jsonString(hex64(*R.Digests[J])) : "null");
    OS << "],\n      \"failures\": [";
    for (size_t F = 0; F != R.Failures.size(); ++F)
      OS << (F ? ", " : "") << jsonString(R.Failures[F]);
    OS << "],\n      \"end_to_end\": " << metricsJson(R.EndToEnd)
       << ",\n      \"per_layer\": " << metricsJson(R.PerLayer)
       << ",\n      \"spans\": [";
    for (size_t S = 0; S != R.Spans.size(); ++S) {
      const Span &Sp = R.Spans[S];
      OS << (S ? "," : "") << "\n        {\"name\": " << jsonString(Sp.Name)
         << ", \"serve\": " << Sp.Serve
         << ", \"start_s\": " << jsonNumber(Sp.StartS)
         << ", \"dur_s\": " << jsonNumber(Sp.DurS)
         << ", \"calls\": " << Sp.Calls << "}";
    }
    OS << "]\n    }";
  }
  OS << "\n  }\n}\n";
  return OS.str();
}

} // namespace

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  Options O;
  if (!parseOptions(CL, O))
    return 2;
  std::optional<DigestTable> Expected = loadExpected(O.Expected);
  if (!Expected)
    return 2;

  std::error_code EC;
  fs::create_directories(O.Work, EC);
  CorpusCache Cache((fs::path(O.Work) / "corpus").string());
  ExperimentEngine Engine(O.Jobs);
  Engine.setCorpusCache(&Cache);
  const MachineModel Model = MachineModel::ppc7410();
  Stopwatch Clock;

  std::vector<Report> Reports;
  bool Failed = false;
  for (const Workload *W : O.Workloads) {
    // peak_rss_mb is per workload: later workloads must not report the
    // peaks of earlier ones.
    if (!resetPeakRss() && !Reports.empty()) {
      std::cerr << "error: cannot reset the peak RSS (/proc/self/clear_refs);"
                   " run one workload per process\n";
      return 2;
    }
    Reports.push_back(runWorkload(*W, O, *Expected, Engine, Model, Clock));
    std::cout << Reports.back().Summary << std::flush;
    Failed = Failed || Reports.back().Failed;
  }
  if (!writeBenchJson(O.Out, resultJson(O, Reports)))
    return 2;
  return Failed ? 1 : 0;
}
