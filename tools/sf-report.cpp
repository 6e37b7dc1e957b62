//===- tools/sf-report.cpp - One-shot reproduction report -------------------===//
//
// Runs the paper's whole evaluation in one command and prints every table
// and figure in order (Tables 3-6, Figures 1-4), plus the headline
// benefit/effort frontier, for the chosen suite.  This is the "regenerate
// the paper" button and the one command for Tables 3-4 and Figures 2-3
// (Figure 3 is --suite fp); EXPERIMENTS.md lists what each section should
// show against the paper.
//
// Usage:
//   sf-report [--suite FAMILY] [--model ppc7410|ppc970|simple-scalar]
//             [--fig4-holdout NAME] [--jobs N] [--corpus-dir DIR | --no-cache]
//
// --suite accepts any registered workload family (specjvm98 by default;
// fp, serverloop, fpkernel, ptrchase, ... -- see sf-serve --list).
//
// --jobs N fans the tracing and the threshold sweep out over N workers;
// the printed numbers are bit-for-bit identical at any N -- and whether
// the suite was traced fresh or loaded from a warm corpus cache.
//
//===----------------------------------------------------------------------===//

#include "harness/ParallelExperiments.h"
#include "harness/TableRender.h"
#include "ml/Ripper.h"
#include "support/CommandLine.h"

#include "EngineOption.h"
#include "ModelOption.h"
#include "VersionOption.h"
#include "WorkloadOption.h"

#include <iostream>

using namespace schedfilter;

static void printUsage(std::ostream &OS) {
  OS << "usage: sf-report [--suite FAMILY]"
        " [--model ppc7410|ppc970|simple-scalar]\n"
        "                 [--fig4-holdout NAME] [--jobs N]"
        " [--corpus-dir DIR | --no-cache]\n"
        "       sf-report --help | --version\n";
}

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  if (CL.reportUnknown({"help", "version", "suite", "model", "fig4-holdout",
                        "jobs", "corpus-dir", "no-cache"},
                       /*TakesPositionals=*/false)) {
    printUsage(std::cerr);
    return 1;
  }
  if (CL.has("help")) {
    printUsage(std::cout);
    return 0;
  }
  if (handleVersionOption(CL, "sf-report"))
    return 0;
  std::string SuiteName = CL.get("suite", "specjvm98");
  const WorkloadFamily *Family = findWorkloadFamily(SuiteName);
  if (!Family) {
    std::cerr << "error: unknown suite: got '" << SuiteName
              << "', known: " << knownFamilyNames() << '\n';
    return 1;
  }
  std::vector<BenchmarkSpec> Suite = Family->makeBenchmarkSuite();

  std::optional<MachineModel> Model = parseModelOption(CL);
  if (!Model)
    return 1;
  std::optional<EngineHandle> Handle = parseEngineOptions(CL);
  if (!Handle)
    return 1;
  ExperimentEngine &Engine = **Handle;

  std::cerr << "preparing " << Suite.size() << " benchmarks on "
            << Model->getName() << " (" << Engine.jobs() << " job"
            << (Engine.jobs() == 1 ? "" : "s")
            << "; tracing on cache miss)...\n";
  std::vector<BenchmarkRun> Runs = Engine.generateSuiteData(Suite, *Model);
  if (CorpusCache *C = Engine.corpusCache()) {
    CorpusCache::Stats St = C->stats();
    std::cerr << "corpus cache: " << St.Hits << " hit"
              << (St.Hits == 1 ? "" : "s") << ", " << St.Misses << " miss"
              << (St.Misses == 1 ? "" : "es") << " (" << C->directory()
              << ")\n";
  }
  std::cerr << "running the threshold sweep (11 x LOOCV RIPPER)...\n";
  std::vector<ThresholdResult> Sweep =
      Engine.runThresholdSweep(Runs, paperThresholds(), ripperLearner());

  renderTable3(Sweep, std::cout);
  std::cout << '\n';
  renderTable4(Sweep, std::cout);
  std::cout << '\n';
  renderTable5(Sweep, std::cout);
  std::cout << '\n';
  renderTable6(Sweep, std::cout);
  std::cout << '\n';
  renderEffortFigure(Sweep, /*UseWallTime=*/false, std::cout);
  std::cout << '\n';
  renderEffortFigure(Sweep, /*UseWallTime=*/true, std::cout);
  std::cout << '\n';
  renderAppTimeFigure(Sweep, std::cout);
  std::cout << '\n';
  renderHeadline(Sweep, std::cout);
  std::cout << '\n';

  // Figure 4: train on all but one benchmark at t = 0.
  std::string Holdout = CL.get("fig4-holdout", Suite.back().Name);
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);
  Dataset Train("all-minus-" + Holdout);
  for (const Dataset &D : Labeled)
    if (D.getName() != Holdout)
      Train.append(D);
  RuleSet Filter = Ripper().train(Train);
  renderInducedFilter(Filter, std::cout);
  return 0;
}
