//===- tests/cv_test.cpp - ml/CrossValidation unit tests ---------------------===//

#include "ml/CrossValidation.h"

#include "ml/Ripper.h"
#include "support/Rng.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using test::serialPool;

namespace {

FeatureVector fv(double BBLen) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  return X;
}

Dataset named(const std::string &Name, size_t N) {
  Dataset D(Name);
  for (size_t I = 0; I != N; ++I)
    D.add({fv(static_cast<double>(I)), Label::NS});
  return D;
}

/// A benchmark whose blocks are scheduled (LS) when longer than a
/// per-seed cutoff, with 10% of the labels flipped.
Dataset learnable(const std::string &Name, uint64_t Seed, size_t N) {
  Rng R(Seed);
  double Cutoff = R.uniform(10.0, 30.0);
  Dataset D(Name);
  for (size_t I = 0; I != N; ++I) {
    FeatureVector X{};
    for (double &V : X)
      V = R.uniform();
    X[FeatBBLen] = static_cast<double>(R.range(1, 40));
    bool Long = X[FeatBBLen] > Cutoff;
    D.add({X, Long != R.chance(0.1) ? Label::LS : Label::NS});
  }
  return D;
}

} // namespace

TEST(CrossValidation, OneFoldPerBenchmark) {
  std::vector<Dataset> Suite = {named("a", 3), named("b", 4), named("c", 5)};
  std::vector<LoocvFold> Folds = leaveOneOut(
      Suite, [](const Dataset &) { return RuleSet(Label::NS); },
      serialPool());
  ASSERT_EQ(Folds.size(), 3u);
  EXPECT_EQ(Folds[0].HeldOut, "a");
  EXPECT_EQ(Folds[1].HeldOut, "b");
  EXPECT_EQ(Folds[2].HeldOut, "c");
}

TEST(CrossValidation, TrainsOnExactlyTheOthers) {
  std::vector<Dataset> Suite = {named("a", 3), named("b", 4), named("c", 5)};
  std::vector<size_t> TrainSizes;
  leaveOneOut(Suite, [&](const Dataset &Train) {
    TrainSizes.push_back(Train.size());
    return RuleSet(Label::NS);
  }, serialPool());
  // Fold i trains on total minus the held-out benchmark.
  EXPECT_EQ(TrainSizes, (std::vector<size_t>{9, 8, 7}));
}

TEST(CrossValidation, NeverTrainsOnHeldOutInstances) {
  // Give each benchmark a unique bbLen range; assert the training set
  // seen for fold i contains no value from i's range.
  std::vector<Dataset> Suite;
  for (int B = 0; B != 3; ++B) {
    Dataset D("bench" + std::to_string(B));
    for (int I = 0; I != 10; ++I)
      D.add({fv(B * 100 + I), Label::NS});
    Suite.push_back(std::move(D));
  }
  size_t Fold = 0;
  leaveOneOut(Suite, [&](const Dataset &Train) {
    for (const Instance &I : Train) {
      double Lo = static_cast<double>(Fold) * 100.0;
      EXPECT_TRUE(I.X[FeatBBLen] < Lo || I.X[FeatBBLen] >= Lo + 100.0)
          << "fold " << Fold << " trained on its own benchmark";
    }
    ++Fold;
    return RuleSet(Label::NS);
  }, serialPool());
  EXPECT_EQ(Fold, 3u);
}

TEST(CrossValidation, SelfTrainUsesOwnDataOnly) {
  std::vector<Dataset> Suite = {named("a", 3), named("b", 7)};
  std::vector<size_t> TrainSizes;
  selfTrain(Suite, [&](const Dataset &Train) {
    TrainSizes.push_back(Train.size());
    return RuleSet(Label::NS);
  }, serialPool());
  EXPECT_EQ(TrainSizes, (std::vector<size_t>{3, 7}));
}

TEST(CrossValidation, SingleBenchmarkTrainsOnNothing) {
  std::vector<Dataset> Suite = {named("only", 5)};
  std::vector<LoocvFold> Folds =
      leaveOneOut(Suite, [](const Dataset &Train) {
        EXPECT_EQ(Train.size(), 0u);
        return RuleSet(Label::NS);
      }, serialPool());
  EXPECT_EQ(Folds.size(), 1u);
}

TEST(CrossValidation, EmptySuite) {
  EXPECT_TRUE(leaveOneOut(
                  {}, [](const Dataset &) { return RuleSet(Label::NS); },
                  serialPool())
                  .empty());
}

TEST(CrossValidation, SelfTrainIdenticalAtAnyJobCount) {
  // Self-training fans out by benchmark: at one job and at four, each
  // fold is its own benchmark's RIPPER filter, bit for bit.
  std::vector<Dataset> Suite;
  for (uint64_t B = 0; B != 5; ++B)
    Suite.push_back(learnable("bench" + std::to_string(B), 100 + B, 400));
  TaskPool OneJob(1), FourJobs(4);
  std::vector<LoocvFold> A = selfTrain(Suite, ripperLearner(OneJob), OneJob);
  std::vector<LoocvFold> B =
      selfTrain(Suite, ripperLearner(FourJobs), FourJobs);
  ASSERT_EQ(A.size(), Suite.size());
  ASSERT_EQ(B.size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I) {
    EXPECT_EQ(A[I].HeldOut, Suite[I].getName());
    EXPECT_EQ(B[I].HeldOut, Suite[I].getName());
    EXPECT_GT(A[I].Filter.size(), 0u) << Suite[I].getName();
    EXPECT_EQ(A[I].Filter.toString(), B[I].Filter.toString());
    EXPECT_EQ(A[I].Filter.toString(),
              Ripper().train(Suite[I], OneJob).toString());
  }
}
