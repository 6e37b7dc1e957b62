//===- tests/ripper_engine_test.cpp - training-engine equivalence pins ----===//
//
// The rank-histogram RIPPER trainer (value ranks + instance-set masks +
// histogram sweeps + a per-train condition-mask cache, ml/Ripper.cpp)
// must produce *bit-for-bit* the RuleSet of the original
// sort-per-condition implementation, which lives on verbatim in
// tests/ReferenceRipper.h -- across datasets, seeds, option settings and
// TaskPool job counts.  Plus the inputs the rank machinery could
// plausibly mishandle: tiny datasets whose ceil-based grow/prune split
// leaves an empty prune side, single-class data, all-identical feature
// columns, a column with a distinct value per instance, value groups
// mixing -0.0 and +0.0, and optimization passes that revisit cached
// conditions.
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"

#include "ReferenceRipper.h"
#include "RuleSetIdentity.h"
#include "ml/Metrics.h"
#include "support/Rng.h"
#include "support/TaskPool.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace schedfilter;
using test::serialPool;

namespace {

FeatureVector fv(double BBLen, double Loads = 0.0, double Calls = 0.0) {
  FeatureVector X{};
  X[FeatBBLen] = BBLen;
  X[FeatLoad] = Loads;
  X[FeatCall] = Calls;
  return X;
}

/// Asserts two rule sets are byte-identical.  The verdict is the shared
/// identicalRuleSets (the same checker bench_train_scale gates on); the
/// per-field EXPECTs below it exist to name the first diverging field
/// when something breaks.
void expectIdentical(const RuleSet &A, const RuleSet &B,
                     const std::string &What) {
  EXPECT_TRUE(identicalRuleSets(A, B)) << What;
  EXPECT_EQ(A.getDefaultClass(), B.getDefaultClass()) << What;
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t R = 0; R != A.size(); ++R) {
    const Rule &RA = A.rules()[R], &RB = B.rules()[R];
    EXPECT_EQ(RA.Conclusion, RB.Conclusion) << What << " rule " << R;
    EXPECT_EQ(RA.NumCorrect, RB.NumCorrect) << What << " rule " << R;
    EXPECT_EQ(RA.NumIncorrect, RB.NumIncorrect) << What << " rule " << R;
    ASSERT_EQ(RA.size(), RB.size()) << What << " rule " << R;
    for (size_t C = 0; C != RA.size(); ++C) {
      EXPECT_EQ(RA.Conditions[C].Feature, RB.Conditions[C].Feature)
          << What << " rule " << R << " cond " << C;
      EXPECT_EQ(RA.Conditions[C].IsLessEqual, RB.Conditions[C].IsLessEqual)
          << What << " rule " << R << " cond " << C;
      EXPECT_TRUE(sameBits(RA.Conditions[C].Threshold,
                           RB.Conditions[C].Threshold))
          << What << " rule " << R << " cond " << C << ": "
          << RA.Conditions[C].Threshold << " vs " << RB.Conditions[C].Threshold;
    }
  }
  // Belt and braces: the Figure 4 rendering is byte-identical too.
  EXPECT_EQ(A.toString(), B.toString()) << What;
}

/// Linearly separable data: LS iff bbLen >= 8.  Minority LS.
Dataset separableData(size_t N, uint64_t Seed) {
  Dataset D("separable");
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    bool Big = R.chance(0.25);
    double BBLen = Big ? R.range(8, 30) : R.range(1, 7);
    D.add({fv(BBLen, R.uniform(), R.uniform()), Big ? Label::LS : Label::NS});
  }
  return D;
}

/// Three-clause disjunction with 5% noise: a realistic hard target.
Dataset hardData(size_t N, uint64_t Seed) {
  Dataset D("hard");
  Rng R(Seed);
  for (size_t I = 0; I != N; ++I) {
    double BBLen = R.range(1, 24);
    double Loads = R.uniform();
    double Calls = R.uniform() * 0.3;
    bool Pos = (BBLen >= 16) || (BBLen >= 8 && Loads >= 0.5) ||
               (Loads >= 0.85 && Calls <= 0.05);
    if (R.chance(0.05))
      Pos = !Pos;
    D.add({fv(BBLen, Loads, Calls), Pos ? Label::LS : Label::NS});
  }
  return D;
}

} // namespace

TEST(RipperEngine, ColumnViewMirrorsInstancesBitExactly) {
  Dataset D = hardData(257, 11);
  ColumnView CV = D.columns();
  ASSERT_EQ(CV.NumInstances, D.size());
  ASSERT_EQ(CV.Labels.size(), D.size());
  for (size_t I = 0; I != D.size(); ++I) {
    EXPECT_EQ(CV.Labels[I], D[I].Y);
    for (unsigned F = 0; F != NumFeatures; ++F)
      EXPECT_TRUE(sameBits(CV.col(F)[I], D[I].X[F])) << I << "/" << F;
  }
}

TEST(RipperEngine, MatchesReferenceOnStockDatasets) {
  std::vector<Dataset> Datasets = {
      separableData(800, 42), hardData(1000, 7), hardData(1500, 2)};
  for (const Dataset &D : Datasets)
    expectIdentical(Ripper().train(D, serialPool()),
                    reference::trainReference(D), D.getName());
}

TEST(RipperEngine, MatchesReferenceAcrossSeeds) {
  for (uint64_t Seed : {1ull, 2ull, 17ull, 999ull, 0xDEADBEEFull}) {
    Dataset D = hardData(700, Seed * 13 + 1);
    RipperOptions O;
    O.Seed = Seed;
    expectIdentical(Ripper(O).train(D, serialPool()),
                    reference::trainReference(D, O),
                    "seed " + std::to_string(Seed));
  }
}

TEST(RipperEngine, MatchesReferenceAcrossOptionSettings) {
  Dataset D = hardData(900, 5);
  std::vector<RipperOptions> Settings(5);
  Settings[1].OptimizePasses = 0;
  Settings[2].GrowFraction = 0.5;
  Settings[3].MdlSlackBits = 0.0;
  Settings[4].MaxConditionsPerRule = 2;
  Settings[4].MaxRules = 3;
  for (size_t S = 0; S != Settings.size(); ++S)
    expectIdentical(Ripper(Settings[S]).train(D, serialPool()),
                    reference::trainReference(D, Settings[S]),
                    "options " + std::to_string(S));
}

TEST(RipperEngine, PooledTrainingIsByteIdenticalAtAnyJobCount) {
  // Large enough that the per-feature fan-out actually engages (the
  // covered set exceeds the inline threshold), plus a small dataset where
  // it never does -- every job count must match jobs=1 and the reference
  // exactly.
  TaskPool OneJob(1);
  for (size_t N : {300u, 6000u}) {
    Dataset D = hardData(N, 31);
    RuleSet AtOneJob = Ripper().train(D, OneJob);
    expectIdentical(AtOneJob, reference::trainReference(D),
                    "jobs=1 vs reference n=" + std::to_string(N));
    for (unsigned Jobs : {2u, 4u}) {
      TaskPool Pool(Jobs);
      expectIdentical(Ripper().train(D, Pool), AtOneJob,
                      "jobs=" + std::to_string(Jobs) +
                          " n=" + std::to_string(N));
    }
  }
}

TEST(RipperEngine, PooledLearnerMatchesFromInsideAPoolTask) {
  // LOOCV runs learners *inside* pool tasks (nested parallelFor runs
  // inline); the filter must still be byte-identical to jobs=1.
  Dataset D = hardData(500, 77);
  TaskPool OneJob(1), Pool(4);
  RuleSet AtOneJob = Ripper().train(D, OneJob);
  std::vector<RuleSet> Out(3, RuleSet(Label::NS));
  Pool.parallelFor(Out.size(),
                   [&](size_t I) { Out[I] = Ripper().train(D, Pool); });
  for (size_t I = 0; I != Out.size(); ++I)
    expectIdentical(Out[I], AtOneJob, "nested slot " + std::to_string(I));
}

// --- Degenerate inputs. ---

TEST(RipperEngine, EmptyAndSingleClassMatchReference) {
  Dataset Empty("empty");
  expectIdentical(Ripper().train(Empty, serialPool()),
                  reference::trainReference(Empty), "empty");

  Dataset AllNS("allns"), AllLS("allls");
  for (int I = 0; I != 40; ++I) {
    AllNS.add({fv(I % 10 + 1), Label::NS});
    AllLS.add({fv(I % 10 + 1), Label::LS});
  }
  expectIdentical(Ripper().train(AllNS, serialPool()),
                  reference::trainReference(AllNS), "all NS");
  expectIdentical(Ripper().train(AllLS, serialPool()),
                  reference::trainReference(AllLS), "all LS");
  EXPECT_EQ(Ripper().train(AllNS, serialPool()).getDefaultClass(),
            Label::NS);
  EXPECT_EQ(Ripper().train(AllLS, serialPool()).getDefaultClass(),
            Label::LS);
}

TEST(RipperEngine, TinyDatasetsWithEmptyPruneSplit) {
  // With <= 2 positives, ceil(2/3 * n) swallows every positive into the
  // grow split: the prune side is empty, every prefix scores Worth 0, and
  // the rule prunes to empty -- training must stop cleanly (no rules),
  // identically in both engines, at every size from 1 up.
  for (size_t Positives : {1u, 2u}) {
    for (size_t Negatives : {0u, 1u, 2u, 5u}) {
      Dataset D("tiny");
      for (size_t I = 0; I != Positives; ++I)
        D.add({fv(10 + static_cast<double>(I), 0.9), Label::LS});
      for (size_t I = 0; I != Negatives; ++I)
        D.add({fv(2 + static_cast<double>(I), 0.1), Label::NS});
      RuleSet RS = Ripper().train(D, serialPool());
      expectIdentical(RS, reference::trainReference(D),
                      "tiny " + std::to_string(Positives) + "p" +
                          std::to_string(Negatives) + "n");
      // Up to 2 instances per class, ceil keeps *both* prune sides empty:
      // every prefix scores Worth 0, the first rule prunes to nothing and
      // training stops with zero rules.  (At 5 negatives the prune side
      // regains an instance and a rule may legitimately survive; those
      // cases are covered by the equivalence pin alone.)
      if (Negatives <= 2) {
        EXPECT_EQ(RS.size(), 0u) << "empty prune split must stop training";
      }
      // Predicting must be safe whatever was induced.
      (void)RS.predict(fv(10, 0.9));
    }
  }
}

TEST(RipperEngine, AllIdenticalFeatureVectors) {
  // Every instance identical: one distinct value per feature, so no
  // condition can exclude anything -- no rules, majority default.  The
  // sorted columns collapse to a single tie group; both engines must
  // agree.
  for (double LSShare : {0.2, 0.5, 0.8}) {
    Dataset D("const");
    for (int I = 0; I != 60; ++I)
      D.add({fv(7, 0.5, 0.25),
             I < 60 * LSShare ? Label::LS : Label::NS});
    RuleSet RS = Ripper().train(D, serialPool());
    expectIdentical(RS, reference::trainReference(D),
                    "const features, LS share " + std::to_string(LSShare));
    EXPECT_EQ(RS.size(), 0u);
  }
}

TEST(RipperEngine, ConstantColumnsAmongInformativeOnes) {
  // Most features constant (the fv() helper zeroes them), one
  // informative: the sweep must skip the constant columns' single tie
  // group and still find the signal.
  Dataset D = separableData(400, 3);
  RuleSet RS = Ripper().train(D, serialPool());
  expectIdentical(RS, reference::trainReference(D), "constant columns");
  EXPECT_GE(RS.size(), 1u);
  EXPECT_LE(errorRatePercent(RS, D), 1.0);
}

TEST(RipperEngine, ContradictoryDuplicatesMatchReference) {
  Dataset D("contra");
  for (int I = 0; I != 300; ++I)
    D.add({fv(10, 0.5), I % 5 == 0 ? Label::LS : Label::NS});
  expectIdentical(Ripper().train(D, serialPool()),
                  reference::trainReference(D), "contra");
}

// --- Inputs the rank-histogram sweep could mishandle. ---

TEST(RipperEngine, ColumnWithADistinctValuePerInstance) {
  // As many value ranks as instances: every histogram bin holds one
  // instance, and the occupied-rank walk spans the whole rank table.
  // Large enough (grow split > 2048) that the pooled sweeps engage.
  const size_t N = 3300;
  Dataset D("distinct");
  Rng R(404);
  for (size_t I = 0; I != N; ++I) {
    double BBLen = static_cast<double>((I * 7919) % N) + 0.25;
    double Loads = R.uniform();
    bool Pos = BBLen > 0.7 * N || (BBLen > 0.4 * N && Loads > 0.6);
    if (R.chance(0.04))
      Pos = !Pos;
    D.add({fv(BBLen, Loads), Pos ? Label::LS : Label::NS});
  }
  ColumnView CV = D.columns();
  std::vector<double> Col(CV.col(FeatBBLen), CV.col(FeatBBLen) + N);
  std::sort(Col.begin(), Col.end());
  ASSERT_EQ(std::unique(Col.begin(), Col.end()) - Col.begin(),
            static_cast<long>(N));

  RuleSet Serial = Ripper().train(D, serialPool());
  expectIdentical(Serial, reference::trainReference(D), "distinct serial");
  EXPECT_GE(Serial.size(), 1u);
  TaskPool Pool(4);
  expectIdentical(Ripper().train(D, Pool), Serial, "distinct jobs=4");
}

TEST(RipperEngine, MixedSignedZerosPredictLikeReference) {
  // CSV traces can carry -0.0 (strtod("-0") returns it), and -0.0 ==
  // +0.0, so one value group may mix both.  The engine's threshold is the
  // rank table's zero and the reference's the first covered zero; they
  // may differ in sign only, which no comparison can see.  Required:
  // the same rules up to ==, the same prediction on every instance, and
  // byte identity between job counts.
  Dataset D("signed-zeros");
  Rng R(11);
  for (int I = 0; I != 3300; ++I) {
    bool Zero = R.chance(0.5);
    double Calls = Zero ? (R.chance(0.5) ? -0.0 : 0.0) : R.range(1, 4);
    double BBLen = R.range(1, 24);
    bool Pos = (Zero && BBLen >= 10) || BBLen >= 20;
    if (R.chance(0.03))
      Pos = !Pos;
    D.add({fv(BBLen, R.uniform(), Calls), Pos ? Label::LS : Label::NS});
  }
  size_t NegZeros = 0, PosZeros = 0;
  for (const Instance &In : D)
    if (In.X[FeatCall] == 0.0)
      ++(std::signbit(In.X[FeatCall]) ? NegZeros : PosZeros);
  ASSERT_GT(NegZeros, 0u);
  ASSERT_GT(PosZeros, 0u);

  RuleSet Engine = Ripper().train(D, serialPool());
  RuleSet Ref = reference::trainReference(D);
  ASSERT_EQ(Engine.size(), Ref.size());
  bool ZeroThreshold = false;
  for (size_t RI = 0; RI != Engine.size(); ++RI) {
    const Rule &A = Engine.rules()[RI], &B = Ref.rules()[RI];
    EXPECT_EQ(A.NumCorrect, B.NumCorrect) << "rule " << RI;
    EXPECT_EQ(A.NumIncorrect, B.NumIncorrect) << "rule " << RI;
    ASSERT_EQ(A.size(), B.size()) << "rule " << RI;
    for (size_t C = 0; C != A.size(); ++C) {
      EXPECT_EQ(A.Conditions[C].Feature, B.Conditions[C].Feature);
      EXPECT_EQ(A.Conditions[C].IsLessEqual, B.Conditions[C].IsLessEqual);
      EXPECT_EQ(A.Conditions[C].Threshold, B.Conditions[C].Threshold);
      ZeroThreshold |= A.Conditions[C].Feature == FeatCall &&
                       A.Conditions[C].Threshold == 0.0;
    }
  }
  EXPECT_TRUE(ZeroThreshold) << "no rule tests the mixed zero group:\n"
                             << Engine.toString();
  for (size_t I = 0; I != D.size(); ++I)
    EXPECT_EQ(Engine.predict(D[I].X), Ref.predict(D[I].X))
        << "instance " << I;

  TaskPool Pool(4);
  expectIdentical(Ripper().train(D, Pool), Engine, "signed zeros jobs=4");
}

TEST(RipperEngine, OptimizePassesReuseCachedConditions) {
  // Each optimization pass re-derives every rule's coverage and grows a
  // revision from the rule's own conditions, so later passes hit the
  // per-train condition-mask cache for masks earlier phases computed.
  // Every pass count must still match the reference, serial and pooled.
  Dataset D = hardData(3300, 606);
  TaskPool Pool(4);
  for (unsigned Passes : {0u, 1u, 2u, 3u}) {
    RipperOptions O;
    O.OptimizePasses = Passes;
    std::string What = "passes " + std::to_string(Passes);
    RuleSet Serial = Ripper(O).train(D, serialPool());
    EXPECT_GE(Serial.size(), 2u) << What;
    expectIdentical(Serial, reference::trainReference(D, O), What);
    expectIdentical(Ripper(O).train(D, Pool), Serial, What + " jobs=4");
  }
}

// Property sweep: equivalence holds across many generated datasets, with
// the pool engaged.
class RipperEngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RipperEngineProperty, IndexedEngineEqualsReference) {
  Dataset D = hardData(400 + 37 * (GetParam() % 5), GetParam());
  TaskPool Pool(3);
  RuleSet New = Ripper().train(D, Pool);
  expectIdentical(New, reference::trainReference(D),
                  "property seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RipperEngineProperty,
                         ::testing::Values(3, 9, 27, 81, 243, 729));
