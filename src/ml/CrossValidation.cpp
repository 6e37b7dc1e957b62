//===- ml/CrossValidation.cpp - Leave-one-out over benchmarks ---------------===//

#include "ml/CrossValidation.h"

#include "support/TaskPool.h"

using namespace schedfilter;

std::vector<LoocvFold>
schedfilter::leaveOneOut(const std::vector<Dataset> &PerBenchmark,
                         const LearnerFn &Learner, TaskPool &Pool) {
  std::vector<LoocvFold> Folds(PerBenchmark.size());
  Pool.parallelFor(PerBenchmark.size(), [&](size_t Held) {
    // The learner sees every benchmark except the held-out one.
    Dataset Train("train-without-" + PerBenchmark[Held].getName());
    for (size_t J = 0; J != PerBenchmark.size(); ++J)
      if (J != Held)
        Train.append(PerBenchmark[J]);
    Folds[Held] = {PerBenchmark[Held].getName(), Learner(Train)};
  });
  return Folds;
}

std::vector<LoocvFold>
schedfilter::selfTrain(const std::vector<Dataset> &PerBenchmark,
                       const LearnerFn &Learner, TaskPool &Pool) {
  std::vector<LoocvFold> Folds(PerBenchmark.size());
  Pool.parallelFor(PerBenchmark.size(), [&](size_t I) {
    Folds[I] = {PerBenchmark[I].getName(), Learner(PerBenchmark[I])};
  });
  return Folds;
}
