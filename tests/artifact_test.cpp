//===- tests/artifact_test.cpp - On-disk artifact bytes and robustness ----===//
//
// Two contracts over the on-disk artifacts:
//   - the SFCC1 corpus-entry and SFFR1 registry-entry envelopes are pinned
//     byte for byte (FNV-1a of the whole file), so any change to the
//     shared seal / open / atomic-write code that moves a single byte
//     fails here before it reaches a user's cache directory;
//   - no mutant of a valid SFTB1 trace, CSV trace, SFCC1 entry, SFFR1
//     entry or rules file -- seeded byte flips, deletions and insertions
//     -- crashes its reader: each one either parses or is rejected
//     cleanly (a ParseError, or a miss counted as an invalid entry).
//
//===----------------------------------------------------------------------===//

#include "io/CorpusCache.h"
#include "io/FilterRegistry.h"
#include "io/TraceStore.h"
#include "harness/Experiments.h"
#include "ml/Serialization.h"
#include "support/Rng.h"
#include "workloads/WorkloadFamily.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

void spill(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

uint64_t fileHash(const std::string &Path) {
  std::string Bytes = slurp(Path);
  return wire::fnv1a(Bytes.data(), Bytes.size());
}

/// A hand-built rule set with thresholds that need all 17 digits.
RuleSet pinnedRules() {
  RuleSet RS(Label::NS);
  Rule A;
  A.Conclusion = Label::LS;
  A.Conditions.push_back({FeatBBLen, false, 7.0});
  A.Conditions.push_back({FeatLoad, true, 1.0 / 3.0});
  RS.addRule(std::move(A));
  Rule B;
  B.Conclusion = Label::LS;
  B.Conditions.push_back({FeatFloat, false, 0.1});
  RS.addRule(std::move(B));
  return RS;
}

FilterVersionMeta pinnedMeta() {
  FilterVersionMeta Meta;
  Meta.Version = 7;
  Meta.ParentVersion = 6;
  Meta.TriggerTick = 123456789;
  Meta.SessionSeed = 0x9e3779b97f4a7c15ull;
  Meta.CorpusRecords = 4242;
  Meta.ThresholdPct = 12.5;
  Meta.Model = "ppc7410";
  Meta.Workload = "specjvm98,ptrchase";
  return Meta;
}

/// A shrunk db corpus: real traced records and fixed-policy reports.  The
/// reports' measured wall time is zeroed, so the entry is a pure function
/// of (spec, model).
struct PinnedCorpus {
  CorpusKey Key;
  CachedRun Run;
};

PinnedCorpus pinnedCorpus() {
  BenchmarkSpec Spec = shrinkSuite({*findBenchmarkSpec("db")}, 4)[0];
  MachineModel Model = MachineModel::ppc7410();
  BenchmarkRun Traced = ExperimentEngine(1).generateSuiteData({Spec}, Model)[0];
  PinnedCorpus C;
  C.Key = {Spec.Name,          Model.getName(),
           workloadGeneratorVersion(Spec), TracePipelineVersion,
           specFingerprint(Spec), Spec.Family};
  C.Run.Records = std::move(Traced.Records);
  C.Run.NeverReport = Traced.NeverReport;
  C.Run.AlwaysReport = Traced.AlwaysReport;
  C.Run.NeverReport.SchedulingSeconds = 0.0;
  C.Run.AlwaysReport.SchedulingSeconds = 0.0;
  return C;
}

/// Applies 1-3 seeded edits to \p Bytes: flip a byte, delete one, or
/// insert a random one.
std::string mutate(std::string Bytes, Rng &R) {
  unsigned Edits = 1 + R.below(3);
  for (unsigned E = 0; E != Edits; ++E) {
    uint32_t Op = R.below(3);
    if (Bytes.empty())
      Op = 2;
    uint32_t At = R.below(static_cast<uint32_t>(Bytes.size() + 1));
    char Byte = static_cast<char>(R.below(256));
    if (Op == 0 && At != Bytes.size())
      Bytes[At] = static_cast<char>(Bytes[At] ^ (Byte | 1));
    else if (Op == 1 && At != Bytes.size())
      Bytes.erase(At, 1);
    else
      Bytes.insert(Bytes.begin() + At, Byte);
  }
  return Bytes;
}

constexpr unsigned NumMutants = 300;

/// A small but real trace, shared by the SFTB1 and CSV mutation runs.
std::vector<BlockRecord> mutationRecords() {
  std::vector<BlockRecord> Records = pinnedCorpus().Run.Records;
  Records.resize(std::min<size_t>(Records.size(), 12));
  return Records;
}

/// Mutates \p Valid NumMutants times and feeds each mutant to \p Parse,
/// which returns true when the mutant parsed; counts both outcomes.
template <typename ParseFn>
void runMutants(const std::string &Valid, uint64_t Seed, ParseFn Parse) {
  Rng R(Seed);
  unsigned Parsed = 0, Rejected = 0;
  for (unsigned I = 0; I != NumMutants; ++I) {
    if (Parse(mutate(Valid, R)))
      ++Parsed;
    else
      ++Rejected;
  }
  EXPECT_EQ(Parsed + Rejected, NumMutants);
  // The edits really damage the artifact: not every mutant parses.
  EXPECT_GT(Rejected, 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Envelope bytes
//===----------------------------------------------------------------------===//

TEST(ArtifactEnvelope, CorpusEntryBytesPinned) {
  TempCacheDir Dir("envelope-sfcc");
  CorpusCache Cache(Dir.str());
  PinnedCorpus C = pinnedCorpus();
  ASSERT_FALSE(C.Run.Records.empty());
  ASSERT_TRUE(Cache.store(C.Key, C.Run));
  EXPECT_EQ(fileHash(Cache.entryPath(C.Key)), 0x4dff849f9f799628ull);
  // And the pinned bytes load back as a hit.
  EXPECT_TRUE(Cache.load(C.Key, C.Run.Records.size()).has_value());
}

TEST(ArtifactEnvelope, RegistryEntryBytesPinned) {
  TempCacheDir Dir("envelope-sffr");
  FilterRegistry Reg(Dir.str());
  ASSERT_TRUE(Reg.store(pinnedMeta(), pinnedRules()));
  EXPECT_EQ(fileHash(Reg.entryPath(7)), 0xce0e83d9c52bf926ull);
  EXPECT_TRUE(static_cast<bool>(Reg.load(7)));
}

//===----------------------------------------------------------------------===//
// Mutation robustness
//===----------------------------------------------------------------------===//

TEST(ArtifactMutation, BinaryTraceParsesOrRejects) {
  std::ostringstream OS(std::ios::binary);
  writeTrace(mutationRecords(), OS, TraceFormat::Binary);
  runMutants(OS.str(), 101, [](const std::string &Bytes) {
    std::istringstream IS(Bytes, std::ios::binary);
    ParseResult<std::vector<BlockRecord>> R = readTrace(IS);
    if (!R) {
      EXPECT_FALSE(R.error().Message.empty());
    }
    return R.has_value();
  });
}

TEST(ArtifactMutation, CsvTraceParsesOrRejects) {
  std::ostringstream OS;
  writeTrace(mutationRecords(), OS, TraceFormat::Csv);
  runMutants(OS.str(), 102, [](const std::string &Bytes) {
    std::istringstream IS(Bytes);
    ParseResult<std::vector<BlockRecord>> R = readTrace(IS);
    if (!R) {
      EXPECT_FALSE(R.error().Message.empty());
    }
    return R.has_value();
  });
}

TEST(ArtifactMutation, CorpusEntryLoadsOrCountsInvalid) {
  TempCacheDir Dir("mutate-sfcc");
  CorpusCache Cache(Dir.str());
  PinnedCorpus C = pinnedCorpus();
  C.Run.Records.resize(std::min<size_t>(C.Run.Records.size(), 12));
  ASSERT_TRUE(Cache.store(C.Key, C.Run));
  std::string Path = Cache.entryPath(C.Key);
  runMutants(slurp(Path), 103, [&](const std::string &Bytes) {
    spill(Path, Bytes);
    uint64_t InvalidBefore = Cache.stats().InvalidEntries;
    bool Hit = Cache.load(C.Key).has_value();
    EXPECT_EQ(Cache.stats().InvalidEntries, InvalidBefore + (Hit ? 0 : 1));
    return Hit;
  });
}

TEST(ArtifactMutation, RegistryEntryParsesOrRejects) {
  TempCacheDir Dir("mutate-sffr");
  FilterRegistry Reg(Dir.str());
  ASSERT_TRUE(Reg.store(pinnedMeta(), pinnedRules()));
  std::string Path = Reg.entryPath(7);
  runMutants(slurp(Path), 104, [&](const std::string &Bytes) {
    spill(Path, Bytes);
    ParseResult<RegistryEntry> R = Reg.load(7);
    if (!R) {
      EXPECT_FALSE(R.error().Message.empty());
    }
    return R.has_value();
  });
}

TEST(ArtifactMutation, RulesFileParsesOrRejects) {
  std::ostringstream OS;
  writeRuleSet(pinnedRules(), OS);
  runMutants(OS.str(), 105, [](const std::string &Bytes) {
    std::istringstream IS(Bytes);
    ParseResult<RuleSetFile> R = readRuleSetFile(IS);
    if (!R) {
      EXPECT_FALSE(R.error().Message.empty());
    }
    return R.has_value();
  });
}
