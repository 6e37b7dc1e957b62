//===- tests/compiled_filter_test.cpp - compiled-evaluator equivalence -------===//
//
// The compiled filter's contract is total: for EVERY feature vector --
// NaN coordinates included -- the flat cell form must return bit-exactly
// the interpreter's prediction AND its work count, and evaluateBatch must
// return, row for row, exactly what the scalar evaluator returns.  The
// corner-grid walk (analysis/RuleAnalysis.h) makes the first half a
// finite proof: every condition is an axis-aligned threshold compare, so
// one representative per threshold-cut cell of feature space covers every
// behaviorally distinct input.  Randomized rule sets and feature streams
// cover the batch layouts (fast-path mask word vs. the > 64-cell general
// path), and the Golden group pins the real trained filters and every
// block of the served db program against the interpreted reference
// decision (tests/ReferenceFilter.h).
//
//===----------------------------------------------------------------------===//

#include "filter/CompiledFilter.h"

#include "analysis/RuleAnalysis.h"
#include "filter/ScheduleFilter.h"
#include "harness/ParallelExperiments.h"
#include "ml/Ripper.h"
#include "runtime/MultiAppService.h"
#include "sched/SchedContext.h"
#include "support/Rng.h"
#include "workloads/ProgramGenerator.h"

#include "ReferenceFilter.h"
#include "RuleSetIdentity.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace schedfilter;
using namespace schedfilter::test;

namespace {

/// Proves (exhaustively when the corner grid fits \p MaxPoints) that the
/// compiled form of \p RS is prediction- and work-equivalent to the
/// interpreter, NaN coordinates included.
void expectEquivalentOnCornerGrid(const RuleSet &RS,
                                  uint64_t MaxPoints = 1u << 20) {
  CompiledFilter C(RS);
  uint64_t Mismatches = 0;
  CornerGridWalk W = forEachCornerPoint(
      {&RS}, /*WithNaN=*/true, MaxPoints, [&](const FeatureVector &X) {
        bool InterpLS = RS.predict(X) == Label::LS;
        uint64_t InterpWork = RS.predictionWork(X);
        CompiledFilter::Decision D = C.evaluate(X);
        if (D.ScheduleLS != InterpLS || D.Work != InterpWork) {
          ++Mismatches;
          return false; // first counterexample is enough
        }
        return true;
      });
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_GT(W.PointsVisited, 0u);
}

/// Asserts evaluateBatch over \p Rows returns, row for row, exactly what
/// the scalar evaluator (and therefore the interpreter) returns.
void expectBatchMatchesScalar(const RuleSet &RS,
                              const std::vector<FeatureVector> &Rows) {
  CompiledFilter C(RS);
  FeatureMatrix M;
  for (const FeatureVector &X : Rows)
    M.appendRow(X);
  std::vector<unsigned char> LS(Rows.size(), 0xCC);
  std::vector<uint64_t> Work(Rows.size(), ~uint64_t{0});
  CompiledFilter::BatchScratch Scratch;
  C.evaluateBatch(M, Scratch, LS.data(), Work.data());
  for (size_t I = 0; I != Rows.size(); ++I) {
    CompiledFilter::Decision D = C.evaluate(Rows[I]);
    ASSERT_EQ(LS[I] != 0, D.ScheduleLS) << "row " << I;
    ASSERT_EQ(Work[I], D.Work) << "row " << I;
    ASSERT_EQ(D.ScheduleLS, RS.predict(Rows[I]) == Label::LS) << "row " << I;
    ASSERT_EQ(D.Work, RS.predictionWork(Rows[I])) << "row " << I;
  }
}

/// A deterministic random rule set.  Thresholds come from a small pool so
/// rules overlap, share predicate rows, and contain within-rule redundant
/// conditions -- the shapes that stress interning and work counting.
RuleSet randomRuleSet(Rng &R, size_t NumRules, size_t MaxConds,
                      bool AllowNaNThreshold) {
  static const double Pool[] = {-1.0, 0.0,  0.125, 0.25, 0.5,
                                1.0,  4.0,  5.0,   16.0, 1e6};
  RuleSet RS(R.below(2) ? Label::LS : Label::NS);
  for (size_t I = 0; I != NumRules; ++I) {
    Rule Ru;
    Ru.Conclusion = R.below(2) ? Label::LS : Label::NS;
    size_t NC = R.below(static_cast<uint32_t>(MaxConds + 1));
    for (size_t C = 0; C != NC; ++C) {
      Condition Cond;
      Cond.Feature = static_cast<FeatureIndex>(R.below(NumFeatures));
      Cond.IsLessEqual = R.below(2) != 0;
      Cond.Threshold = AllowNaNThreshold && R.below(16) == 0
                           ? std::numeric_limits<double>::quiet_NaN()
                           : Pool[R.below(10)];
      Ru.Conditions.push_back(Cond);
    }
    RS.addRule(std::move(Ru));
  }
  return RS;
}

/// Random feature vectors, salted with the values that break naive
/// evaluators: NaN, infinities, signed zero, and exact pool thresholds.
std::vector<FeatureVector> randomVectors(Rng &R, size_t N) {
  static const double Specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.0,
      0.25,
      0.5,
      1.0,
      5.0};
  std::vector<FeatureVector> Rows(N);
  for (FeatureVector &X : Rows)
    for (double &V : X)
      V = R.below(4) == 0
              ? Specials[R.below(9)]
              : static_cast<double>(R.range(-8, 64)) * 0.125;
  return Rows;
}

RuleSet basicFilter() {
  RuleSet RS(Label::NS);
  Rule R;
  R.Conclusion = Label::LS;
  R.Conditions.push_back({FeatBBLen, false, 5.0});
  R.Conditions.push_back({FeatLoad, false, 0.2});
  RS.addRule(std::move(R));
  return RS;
}

} // namespace

TEST(CompiledFilter, EmptyRuleSet) {
  RuleSet RS(Label::NS);
  CompiledFilter C(RS);
  EXPECT_EQ(C.numCells(), 0u);
  FeatureVector X{};
  CompiledFilter::Decision D = C.evaluate(X);
  EXPECT_FALSE(D.ScheduleLS);
  EXPECT_EQ(D.Work, 1u); // the interpreter's default fall-through
  expectEquivalentOnCornerGrid(RS);
  Rng R(1);
  expectBatchMatchesScalar(RS, randomVectors(R, 300));
}

TEST(CompiledFilter, SingleRule) {
  expectEquivalentOnCornerGrid(basicFilter());
  Rng R(2);
  expectBatchMatchesScalar(basicFilter(), randomVectors(R, 300));
}

TEST(CompiledFilter, EmptyAntecedentRuleMatchesEverything) {
  // An empty-antecedent rule matches every input with zero condition
  // work; rules behind it are unreachable.  Both positions (first and
  // mid-list) exercise the rule-entry and guard-bit special cases.
  for (size_t Position : {size_t{0}, size_t{1}}) {
    RuleSet RS(Label::NS);
    if (Position == 1)
      RS = basicFilter();
    Rule Always;
    Always.Conclusion = Label::LS;
    RS.addRule(std::move(Always));
    Rule Behind;
    Behind.Conclusion = Label::NS;
    Behind.Conditions.push_back({FeatBBLen, true, 3.0});
    RS.addRule(std::move(Behind));
    expectEquivalentOnCornerGrid(RS);
    Rng R(3 + Position);
    expectBatchMatchesScalar(RS, randomVectors(R, 300));
  }
}

TEST(CompiledFilter, NaNThresholdConditionNeverMatches) {
  RuleSet RS(Label::NS);
  Rule Dead;
  Dead.Conclusion = Label::LS;
  Dead.Conditions.push_back({FeatBBLen, false, 2.0});
  Dead.Conditions.push_back(
      {FeatLoad, true, std::numeric_limits<double>::quiet_NaN()});
  RS.addRule(std::move(Dead));
  Rule Live;
  Live.Conclusion = Label::LS;
  Live.Conditions.push_back({FeatBBLen, false, 8.0});
  RS.addRule(std::move(Live));
  expectEquivalentOnCornerGrid(RS);
  // The NaN compare fails with its short-circuit work still counted.
  FeatureVector X{};
  X[FeatBBLen] = 10.0;
  CompiledFilter C(RS);
  EXPECT_EQ(C.evaluate(X).Work, RS.predictionWork(X));
  EXPECT_TRUE(C.evaluate(X).ScheduleLS);
  Rng R(5);
  expectBatchMatchesScalar(RS, randomVectors(R, 300));
}

TEST(CompiledFilter, MaxConditionRuleTakesGeneralBatchPath) {
  // 80 conditions in one rule: past the one-mask-word fast path, so the
  // batch evaluator must fall back to the predicate-row-major layout.
  Rng Seed(6);
  RuleSet RS(Label::NS);
  Rule Big;
  Big.Conclusion = Label::LS;
  for (size_t C = 0; C != 80; ++C)
    Big.Conditions.push_back(
        {static_cast<FeatureIndex>(C % NumFeatures), C % 2 == 0,
         static_cast<double>(C % 7) * 0.25 - 0.5});
  RS.addRule(std::move(Big));
  Rule Tail;
  Tail.Conclusion = Label::LS;
  Tail.Conditions.push_back({FeatBBLen, false, 4.0});
  RS.addRule(std::move(Tail));
  CompiledFilter C(RS);
  EXPECT_EQ(C.numCells(), 81u);
  expectEquivalentOnCornerGrid(RS, 1u << 16); // sampled: grid is huge
  expectBatchMatchesScalar(RS, randomVectors(Seed, 500));
}

TEST(CompiledFilter, FastPathBoundary) {
  // Cells + one guard per rule + the default bit must fit 64 bits for
  // the mask-word fast path; one condition either side of the boundary
  // must stay bit-identical.
  for (size_t Conds : {size_t{61}, size_t{62}, size_t{63}}) {
    RuleSet RS(Label::LS);
    Rule R1;
    R1.Conclusion = Label::NS;
    for (size_t C = 0; C != Conds; ++C)
      R1.Conditions.push_back({static_cast<FeatureIndex>(C % NumFeatures),
                               C % 3 != 0,
                               static_cast<double>(C % 5) * 0.5});
    RS.addRule(std::move(R1));
    Rng R(7 + Conds);
    expectBatchMatchesScalar(RS, randomVectors(R, 400));
  }
}

TEST(CompiledFilter, RandomizedRuleSets) {
  // 60 random rule sets spanning empty to many-rule, NaN thresholds
  // included: corner-grid equivalence plus batch identity on a salted
  // random stream.  Deterministic seeds -- failures reproduce.
  for (uint64_t Seed = 0; Seed != 60; ++Seed) {
    Rng R(0xC0FFEE + Seed);
    RuleSet RS = randomRuleSet(R, R.below(7), 6, /*AllowNaNThreshold=*/true);
    expectEquivalentOnCornerGrid(RS, 1u << 16);
    expectBatchMatchesScalar(RS, randomVectors(R, 200));
  }
}

TEST(FeatureMatrix, ColumnMajorBitIdentity) {
  // appendBlock must store bit-for-bit what extractFeatures returns, in
  // both row and column views, and extractFeaturesBatch must sum exactly
  // the per-block featureExtractionWork.
  std::vector<BasicBlock> Blocks = {makeIlpFloatBlock(), makeChainBlock(),
                                    makeTrivialBlock()};
  std::vector<const BasicBlock *> Ptrs;
  for (const BasicBlock &BB : Blocks)
    Ptrs.push_back(&BB);

  FeatureMatrix M;
  uint64_t Work = extractFeaturesBatch(Ptrs.data(), Ptrs.size(), M);
  ASSERT_EQ(M.size(), Blocks.size());

  uint64_t ExpectWork = 0;
  for (size_t I = 0; I != Blocks.size(); ++I) {
    FeatureVector X = extractFeatures(Blocks[I]);
    ExpectWork += featureExtractionWork(Blocks[I]);
    for (unsigned F = 0; F != NumFeatures; ++F) {
      EXPECT_TRUE(sameBits(M.row(I)[F], X[F])) << "row " << I << " f " << F;
      EXPECT_TRUE(sameBits(M.column(F)[I], X[F])) << "row " << I << " f " << F;
    }
  }
  EXPECT_EQ(Work, ExpectWork);

  // Reuse keeps capacity but must re-fill identically.
  FeatureMatrix &Reused = M;
  uint64_t Work2 = extractFeaturesBatch(Ptrs.data(), Ptrs.size(), Reused);
  EXPECT_EQ(Work2, ExpectWork);
  ASSERT_EQ(Reused.size(), Blocks.size());
}

TEST(ScheduleFilter, ConstOverloadSharesTheOneEvalPath) {
  ScheduleFilter F(basicFilter());
  const ScheduleFilter &CF = F;
  BasicBlock A = makeIlpFloatBlock(), B = makeTrivialBlock();
  // The const, no-stats query returns the same decision and leaves the
  // counters untouched.
  bool ConstA = CF.shouldSchedule(A), ConstB = CF.shouldSchedule(B);
  EXPECT_EQ(F.numScheduleDecisions() + F.numSkipDecisions(), 0u);
  EXPECT_EQ(F.workUnits(), 0u);
  EXPECT_EQ(F.shouldSchedule(A), ConstA);
  EXPECT_EQ(F.shouldSchedule(B), ConstB);
  EXPECT_EQ(F.numScheduleDecisions() + F.numSkipDecisions(), 2u);
}

/// Asserts \p F decides every block of \p Blocks exactly as the
/// interpreted reference does -- scalar and batch paths, decision by
/// decision, with counters and work units equal to the reference sums.
void expectFilterMatchesReference(const RuleSet &RS,
                                  const std::vector<const BasicBlock *> &Blocks) {
  ScheduleFilter Scalar(RS), Batch(RS);
  SchedContext Ctx;
  std::vector<char> Decisions;
  Batch.shouldScheduleBatch(Blocks, Ctx, Decisions);
  ASSERT_EQ(Decisions.size(), Blocks.size());
  uint64_t RefLS = 0, RefWork = 0;
  for (size_t I = 0; I != Blocks.size(); ++I) {
    reference::FilterDecision Ref = reference::interpretFilter(RS, *Blocks[I]);
    RefLS += Ref.ScheduleLS;
    RefWork += Ref.Work;
    uint64_t WorkBefore = Scalar.workUnits();
    ASSERT_EQ(Scalar.shouldSchedule(*Blocks[I]), Ref.ScheduleLS)
        << "block " << I;
    ASSERT_EQ(Scalar.workUnits() - WorkBefore, Ref.Work) << "block " << I;
    ASSERT_EQ(Decisions[I] != 0, Ref.ScheduleLS) << "block " << I;
  }
  for (const ScheduleFilter *F : {&Scalar, &Batch}) {
    EXPECT_EQ(F->numScheduleDecisions(), RefLS);
    EXPECT_EQ(F->numSkipDecisions(), Blocks.size() - RefLS);
    EXPECT_EQ(F->workUnits(), RefWork);
  }
}

std::vector<const BasicBlock *> blocksOf(const Program &P) {
  std::vector<const BasicBlock *> Blocks;
  P.forEachBlock([&](const BasicBlock &BB) { Blocks.push_back(&BB); });
  return Blocks;
}

TEST(ScheduleFilter, EvaluatorModesAgreeBlockForBlock) {
  Program P = ProgramGenerator(shrinkSuite(specjvm98Suite(), 6)[0]).generate();
  std::vector<const BasicBlock *> Blocks = blocksOf(P);
  expectFilterMatchesReference(basicFilter(), Blocks);
  ScheduleFilter F(basicFilter());
  for (const BasicBlock *BB : Blocks)
    F.shouldSchedule(*BB);
  EXPECT_GT(F.workUnits(), 0u);
}

TEST(ScheduleFilter, BatchMatchesScalarLoopInBothModes) {
  Program P = ProgramGenerator(shrinkSuite(specjvm98Suite(), 6)[1]).generate();
  std::vector<const BasicBlock *> Blocks = blocksOf(P);
  ASSERT_FALSE(Blocks.empty());
  expectFilterMatchesReference(basicFilter(), Blocks);
}

// --- Golden: the real trained filters and the serve path (skipped in the
// sanitizer CI lane like every other Golden test). ---

TEST(Golden, CompiledFilterEquivalentForTrainedFilters) {
  // The paper-setting filter (t = 0, every SPECjvm98 stand-in pooled)
  // plus all nine LOOCV fold filters: corner-grid prediction- and
  // work-equivalence, and batch identity over the real block stream.
  ExperimentEngine Engine(4);
  MachineModel Model = MachineModel::ppc7410();
  std::vector<BenchmarkRun> Runs =
      Engine.generateSuiteData(specjvm98Suite(), Model);
  std::vector<Dataset> Labeled = Engine.labelSuite(Runs, 0.0);
  Dataset Pooled("suite");
  for (const Dataset &D : Labeled)
    Pooled.append(D);

  std::vector<RuleSet> Filters;
  Filters.push_back(Ripper().train(Pooled, Engine.pool()));
  for (const LoocvFold &F :
       leaveOneOut(Labeled, ripperLearner(), Engine.pool()))
    Filters.push_back(F.Filter);

  std::vector<FeatureVector> Rows;
  for (const BenchmarkRun &R : Runs)
    R.Prog.forEachBlock(
        [&](const BasicBlock &BB) { Rows.push_back(extractFeatures(BB)); });

  for (const RuleSet &RS : Filters) {
    expectEquivalentOnCornerGrid(RS, 1u << 18);
    expectBatchMatchesScalar(RS, Rows);
  }
}

TEST(Golden, ServeStatsByteIdenticalAcrossEvaluators) {
  // The serve-path pin: the served stats are a function of the filter's
  // per-block (decision, work) pairs, so the compiled filter must match
  // the interpreted reference on every block of the served db program --
  // and the one-app serve itself is byte-identical at jobs 1 and 4.
  MachineModel Model = MachineModel::ppc7410();
  const BenchmarkSpec &Spec = *findBenchmarkSpec("db");
  std::vector<BenchmarkRun> Runs = generateSuiteData({Spec}, Model);
  RuleSet Rules = ripperLearner()(labelSuite(Runs, 0.0)[0]);
  expectFilterMatchesReference(Rules, blocksOf(Runs[0].Prog));

  ServiceConfig Cfg;
  Cfg.StreamSeed = invocationStreamSeed(Spec.Seed);
  TaskPool Serial(1), Wide(4);
  MultiAppComparison S1 = compareOneApp(Runs[0].Prog, Model, Cfg, Rules, Serial);
  MultiAppComparison S4 = compareOneApp(Runs[0].Prog, Model, Cfg, Rules, Wide);
  EXPECT_TRUE(S1.Always == S4.Always);
  EXPECT_TRUE(S1.Filtered == S4.Filtered);
  EXPECT_GT(S1.Filtered.Total.FilterLS + S1.Filtered.Total.FilterNS, 0u);
}
