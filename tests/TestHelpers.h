//===- tests/TestHelpers.h - Shared fixtures for the test suite -*- C++ -*-===//
///
/// \file
/// Block builders, shrunken benchmark suites, serial threshold
/// experiments and one-app serving shared across test files.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TESTS_TESTHELPERS_H
#define SCHEDFILTER_TESTS_TESTHELPERS_H

#include "harness/ParallelExperiments.h"
#include "mir/BasicBlock.h"
#include "runtime/MultiAppService.h"
#include "workloads/BenchmarkSpec.h"

#include <filesystem>
#include <string>

#include <unistd.h>

namespace schedfilter {
namespace test {

/// A fresh, empty scratch directory per test, removed on scope exit --
/// RAII, so an early ASSERT return cannot leak it.
struct TempCacheDir {
  std::filesystem::path Path;
  explicit TempCacheDir(const std::string &Tag) {
    Path = std::filesystem::temp_directory_path() /
           ("schedfilter-" + Tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// Two independent float multiply trees feeding an add and a store, in
/// naive (depth-first) order: the canonical block that benefits from
/// scheduling on a machine with load/FP latency.
inline BasicBlock makeIlpFloatBlock(uint64_t ExecCount = 1) {
  BasicBlock BB("ilp-float", ExecCount);
  BB.append(Instruction(Opcode::LoadFloat, {100}, {0}));
  BB.append(Instruction(Opcode::FMul, {101}, {100, 100}));
  BB.append(Instruction(Opcode::LoadFloat, {102}, {1}));
  BB.append(Instruction(Opcode::FMul, {103}, {102, 102}));
  BB.append(Instruction(Opcode::FAdd, {104}, {101, 103}));
  BB.append(Instruction(Opcode::StoreFloat, {}, {104, 2}));
  return BB;
}

/// A pure dependence chain: load -> add -> add -> store.  Only one legal
/// order, so scheduling cannot help.
inline BasicBlock makeChainBlock(uint64_t ExecCount = 1) {
  BasicBlock BB("chain", ExecCount);
  BB.append(Instruction(Opcode::LoadInt, {100}, {0}));
  BB.append(Instruction(Opcode::Add, {101}, {100, 1}));
  BB.append(Instruction(Opcode::Add, {102}, {101, 2}));
  BB.append(Instruction(Opcode::StoreInt, {}, {102, 3}));
  return BB;
}

/// A tiny block: one move and a return.
inline BasicBlock makeTrivialBlock(uint64_t ExecCount = 1) {
  BasicBlock BB("trivial", ExecCount);
  BB.append(Instruction(Opcode::Move, {100}, {0}));
  BB.append(Instruction(Opcode::Ret, {}, {}));
  return BB;
}

/// Shrinks every spec of a suite so tests run in milliseconds.
inline std::vector<BenchmarkSpec>
shrinkSuite(std::vector<BenchmarkSpec> Suite, int NumMethods = 10) {
  for (BenchmarkSpec &S : Suite)
    S.NumMethods = NumMethods;
  return Suite;
}

/// A one-job engine's threshold experiment over a hand-built suite.
inline ThresholdResult runThreshold(const std::vector<BenchmarkRun> &Suite,
                                    double ThresholdPct,
                                    const LearnerFn &Learner) {
  return ExperimentEngine(1).runThreshold(Suite, ThresholdPct, Learner);
}

/// A one-job engine's threshold sweep over a hand-built suite.
inline std::vector<ThresholdResult>
runThresholdSweep(const std::vector<BenchmarkRun> &Suite,
                  const std::vector<double> &Thresholds,
                  const LearnerFn &Learner) {
  return ExperimentEngine(1).runThresholdSweep(Suite, Thresholds, Learner);
}

/// Serves \p P alone -- the one-app mix, on Cfg.StreamSeed -- and returns
/// the service totals; with \p Reg, the filter lineage persists there.
inline ServiceStats serveOneApp(const Program &P, const MachineModel &M,
                                const ServiceConfig &Cfg, const RuleSet *Rules,
                                TaskPool &Pool, FilterRegistry *Reg = nullptr) {
  std::vector<AppSpec> Apps(1);
  std::vector<Program> Programs = {P};
  MultiAppService Svc(Apps, Programs, M, Cfg, Rules, Pool);
  if (Reg)
    Svc.setFilterRegistry(Reg, "test", M.getName());
  return Svc.run().Total;
}

/// runMultiAppComparison over \p P alone (the one-app mix).
inline MultiAppComparison compareOneApp(const Program &P, const MachineModel &M,
                                        const ServiceConfig &Cfg,
                                        const RuleSet &Rules, TaskPool &Pool) {
  std::vector<AppSpec> Apps(1);
  std::vector<Program> Programs = {P};
  return runMultiAppComparison(Apps, Programs, M, Cfg, Rules, Pool);
}

} // namespace test
} // namespace schedfilter

#endif // SCHEDFILTER_TESTS_TESTHELPERS_H
