//===- ml/Ripper.cpp - RIPPER rule induction --------------------------------===//
//
// The rank-histogram training engine.  The naive trainer re-sorted every
// feature column for every candidate condition of every grown rule; this
// one sorts each feature column exactly once per train() call over a
// flat Dataset::ColumnView, turns the sort into a dense per-instance value
// rank, and from then on works only with rank histograms and one-bit-per-
// instance masks:
//
//  - Every instance set the algorithm manipulates (the IREP* remainder,
//    an optimization pass's reaching set, grow/prune splits, a rule's
//    covered set) is a bit mask over the instances; the class of an
//    instance is one more mask.  Counting a set's positives/negatives is
//    a popcount, so the MDL exception counts, the pruning counts and the
//    coverage checks are the same integers as per-instance evaluation.
//  - Finding the best FOIL condition builds, per feature, a count
//    histogram of the covered instances over that feature's value ranks
//    and sweeps its non-empty bins in ascending rank: O(covered +
//    ranks/64) per feature and condition, with the same value groups in
//    the same order as a walk of the sorted column.  An FP-sound upper
//    bound (gain <= P * -BaseInfo) skips provably-losing candidates.
//  - Condition masks are cached per train() in a flat slot array keyed
//    by (feature, operator, value rank), so a rule's coverage -- for the
//    grow filter, pruning, the MDL bookkeeping (totalDL, optimizePass,
//    rule deletion) -- is an AND of cached masks.  Nothing outlives the
//    train() call: each train is a pure function of its Dataset.
//
// Per-feature sweeps fan out across the caller's TaskPool; the argmax is
// reduced in feature order with the exact strict-greater tie policy of a
// one-job sweep, so the induced RuleSet is bit-for-bit identical at any
// job count and to the pre-index implementation
// (tests/ripper_engine_test.cpp pins both; bench_train_scale tracks the
// speedup in BENCH_train_scale.json).  A threshold is its value group's
// entry in the rank table -- the value of the group's lowest-index
// instance -- which is the reference's choice unless a group mixes -0.0
// and +0.0; then only the sign of the zero can differ, never a
// prediction.
//
//===----------------------------------------------------------------------===//

#include "ml/Ripper.h"

#include "support/TaskPool.h"

#include <algorithm>
#include <atomic>
#include <cmath>

using namespace schedfilter;

namespace {

/// Instance indices, for the shuffled grow/prune split.
using IndexList = std::vector<int>;

/// One bit per instance; bits past the instance count are always clear.
using Mask = std::vector<uint64_t>;

/// Thread-safe lgamma: the C lgamma() stores the gamma function's sign
/// in the global `signgam`, which is a data race when pool workers train
/// concurrently (ThreadSanitizer flags it).  lgamma_r returns the same
/// bits with the sign in an out-parameter instead.  All call sites pass
/// arguments >= 1, so the discarded sign is always +1.
double logGamma(double X) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int Sign;
  return lgamma_r(X, &Sign);
#else
  return std::lgamma(X);
#endif
}

/// log2 of the binomial coefficient C(n, k), via lgamma for stability.
double log2Binomial(size_t N, size_t K) {
  if (K > N)
    return 0.0;
  double L = logGamma(static_cast<double>(N) + 1.0) -
             logGamma(static_cast<double>(K) + 1.0) -
             logGamma(static_cast<double>(N - K) + 1.0);
  return L / std::log(2.0);
}

/// Bits to identify which K of N elements are exceptions (Quinlan-style
/// two-part exception code).
double subsetDL(size_t N, size_t K) {
  if (N == 0)
    return 0.0;
  return std::log2(static_cast<double>(N) + 1.0) + log2Binomial(N, K);
}

/// Deterministic Fisher-Yates shuffle.
void shuffle(IndexList &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<uint32_t>(I))]);
}

size_t popcount(uint64_t W) {
  return static_cast<size_t>(__builtin_popcountll(W));
}

unsigned lowestBit(uint64_t W) {
  return static_cast<unsigned>(__builtin_ctzll(W));
}

void setBit(Mask &M, size_t I) { M[I >> 6] |= 1ull << (I & 63); }

/// One feature's best candidate from a value-order sweep; reduced across
/// features in index order.
struct FeatureBest {
  double Gain = 0.0;
  double Value = 0.0;
  bool IsLessEqual = true;
  bool Found = false;
};

/// A feature's per-rank class counts over the covered set, plus which
/// ranks are occupied.  Left all-zero between sweeps.
struct RankHistogram {
  std::vector<uint32_t> Pos, Neg;
  Mask Occupied;
};

/// The whole learning state threaded through the helper routines: the
/// immutable rank indexes built once per train() call, the per-train
/// condition-mask cache, and reusable scratch.
struct Trainer {
  const RipperOptions &Opts;
  Label Target;
  TaskPool &Pool;
  double CondSpaceBits; // log2(#possible conditions), for the theory DL

  // --- Immutable per-train() indexes. ---
  ColumnView Cols;
  size_t NumInst;
  size_t Words;
  /// Bit i set iff instance i's label equals the target class.
  Mask PosBits;
  /// Bit i set for every instance.
  Mask AllBits;
  /// Rank[F * n + i]: the dense rank of instance i's value among feature
  /// F's distinct values, ascending (values equal under == share a rank).
  std::vector<uint32_t> Rank;
  /// RankValue[F][r]: the value of rank r -- its lowest-index instance's.
  std::vector<std::vector<double>> RankValue;

  // --- Per-train condition-mask cache. ---
  /// SlotBase[F] + 2 * r + (IsLessEqual ? 0 : 1) is the slot of the
  /// condition (F, op, RankValue[F][r]).
  std::vector<size_t> SlotBase;
  /// Slot -> 1 + index into CondMasks, or 0 when not yet computed.
  std::vector<uint32_t> Slots;
  std::vector<Mask> CondMasks;
  /// Holds the mask of a condition whose threshold has no rank (only a
  /// NaN threshold can), which is computed but never cached.
  Mask UncachedMask;

  // --- Scratch, reused across grown rules. ---
  /// The grow-phase covered set.
  Mask CovBits;
  std::vector<RankHistogram> Hists;
  /// Per-feature sweep results (index-owned slots for the pool).
  std::vector<FeatureBest> FeatureResults;
  Mask PruneCur, RuleMaskScratch;

  /// Fan per-feature work out only when each feature has enough covered
  /// instances to amortize the fork; below this, inline is faster.  A
  /// wall-clock knob only: results are identical either way.
  static constexpr size_t ParallelMinCovered = 2048;

  Trainer(const Dataset &Data, const RipperOptions &O, Label Tgt,
          TaskPool &P)
      : Opts(O), Target(Tgt), Pool(P), Cols(Data.columns()),
        NumInst(Cols.NumInstances), Words((NumInst + 63) / 64) {
    size_t N = NumInst;
    PosBits.assign(Words, 0);
    AllBits.assign(Words, 0);
    for (size_t I = 0; I != N; ++I) {
      setBit(AllBits, I);
      if (Cols.Labels[I] == Target)
        setBit(PosBits, I);
    }
    CovBits.assign(Words, 0);
    FeatureResults.resize(NumFeatures);
    Hists.resize(NumFeatures);

    // Sort each feature column once, ties by instance index, and number
    // its distinct values.  The condition space is two operators per
    // distinct (feature, value) pair present in the data.
    Rank.resize(static_cast<size_t>(NumFeatures) * N);
    RankValue.resize(NumFeatures);
    forEachFeature(N, [&](unsigned F) {
      const double *Col = Cols.col(F);
      std::vector<int32_t> Order(N);
      for (size_t I = 0; I != N; ++I)
        Order[I] = static_cast<int32_t>(I);
      std::sort(Order.begin(), Order.end(), [Col](int32_t A, int32_t B) {
        if (Col[A] != Col[B])
          return Col[A] < Col[B];
        return A < B;
      });
      uint32_t *RankF = Rank.data() + static_cast<size_t>(F) * N;
      std::vector<double> &Values = RankValue[F];
      for (size_t K = 0; K != N; ++K) {
        double V = Col[Order[K]];
        if (K == 0 || V != Values.back())
          Values.push_back(V);
        RankF[Order[K]] = static_cast<uint32_t>(Values.size() - 1);
      }
      RankHistogram &H = Hists[F];
      H.Pos.assign(Values.size(), 0);
      H.Neg.assign(Values.size(), 0);
      H.Occupied.assign((Values.size() + 63) / 64, 0);
    });
    size_t NumConds = 0;
    SlotBase.resize(NumFeatures);
    for (unsigned F = 0; F != NumFeatures; ++F) {
      SlotBase[F] = NumConds;
      NumConds += 2 * RankValue[F].size();
    }
    Slots.assign(NumConds, 0);
    CondSpaceBits =
        std::log2(std::max<double>(2.0, static_cast<double>(NumConds)));
  }

  /// Runs \p Body(F) for every feature, on the pool when it has more than
  /// one job and \p PerFeatureWork is large enough to pay for the fan-out.
  /// Bodies write only feature-owned state and the reduction happens at
  /// the call site in feature order, so job count never changes results.
  template <typename Fn>
  void forEachFeature(size_t PerFeatureWork, const Fn &Body) {
    if (Pool.jobs() > 1 && PerFeatureWork >= ParallelMinCovered) {
      Pool.parallelFor(NumFeatures,
                       [&](size_t F) { Body(static_cast<unsigned>(F)); });
      return;
    }
    for (unsigned F = 0; F != NumFeatures; ++F)
      Body(F);
  }

  /// The instances satisfying \p C: a branchless scan of its column
  /// comparing the same doubles as Condition::matches.  Cached for the
  /// rest of the train() call.
  const Mask &condMask(const Condition &C) {
    const std::vector<double> &Values = RankValue[C.Feature];
    size_t R = static_cast<size_t>(
        std::lower_bound(Values.begin(), Values.end(), C.Threshold) -
        Values.begin());
    bool Ranked = R != Values.size() && Values[R] == C.Threshold;
    size_t Slot = SlotBase[C.Feature] + 2 * R + (C.IsLessEqual ? 0 : 1);
    if (Ranked && Slots[Slot] != 0)
      return CondMasks[Slots[Slot] - 1];

    Mask M(Words, 0);
    const double *Col = Cols.col(C.Feature);
    double T = C.Threshold;
    for (size_t W = 0; W != Words; ++W) {
      size_t Base = W * 64;
      size_t End = std::min<size_t>(64, NumInst - Base);
      uint64_t Bits = 0;
      if (C.IsLessEqual) {
        for (size_t B = 0; B != End; ++B)
          Bits |= static_cast<uint64_t>(Col[Base + B] <= T) << B;
      } else {
        for (size_t B = 0; B != End; ++B)
          Bits |= static_cast<uint64_t>(Col[Base + B] >= T) << B;
      }
      M[W] = Bits;
    }
    if (!Ranked) {
      UncachedMask = std::move(M);
      return UncachedMask;
    }
    CondMasks.push_back(std::move(M));
    Slots[Slot] = static_cast<uint32_t>(CondMasks.size());
    return CondMasks.back();
  }

  /// Fills \p Out with the instances satisfying every condition of \p R.
  void ruleMask(const Rule &R, Mask &Out) {
    Out = AllBits;
    for (const Condition &C : R.Conditions)
      andInto(Out, condMask(C));
  }

  /// Fills \p Any with the union of every rule's coverage mask.
  void anyRuleMask(const std::vector<Rule> &Rules, Mask &Any) {
    Any.assign(Words, 0);
    for (const Rule &R : Rules) {
      ruleMask(R, RuleMaskScratch);
      orInto(Any, RuleMaskScratch);
    }
  }

  static void orInto(Mask &Dst, const Mask &Src) {
    for (size_t W = 0; W != Dst.size(); ++W)
      Dst[W] |= Src[W];
  }

  static void andInto(Mask &Dst, const Mask &Src) {
    for (size_t W = 0; W != Dst.size(); ++W)
      Dst[W] &= Src[W];
  }

  /// Counts \p M's instances by class: \p P targets, \p N others.
  void countClasses(const Mask &M, size_t &P, size_t &N) const {
    P = N = 0;
    for (size_t W = 0; W != Words; ++W) {
      P += popcount(M[W] & PosBits[W]);
      N += popcount(M[W] & ~PosBits[W]);
    }
  }

  bool hasPositive(const Mask &M) const {
    for (size_t W = 0; W != Words; ++W)
      if (M[W] & PosBits[W])
        return true;
    return false;
  }

  /// Theory cost of one rule (Cohen's redundancy-adjusted encoding).
  double ruleDL(const Rule &R) const {
    double K = static_cast<double>(R.size());
    return 0.5 * (std::log2(K + 1.0) + K * CondSpaceBits);
  }

  /// Description length given a precomputed covered-by-any mask:
  /// exception bits from the coverage counts over \p Members plus theory
  /// bits for every rule of \p Rules except index \p Skip (pass
  /// Rules.size() to include all) -- accumulated in list order, exactly as
  /// the direct computation would.
  double dlFromMask(const Mask &Any, const std::vector<Rule> &Rules,
                    size_t Skip, const Mask &Members) const {
    size_t CovP = 0, CovN = 0, TotP = 0, TotN = 0;
    for (size_t W = 0; W != Words; ++W) {
      uint64_t P = Members[W] & PosBits[W], N = Members[W] & ~PosBits[W];
      TotP += popcount(P);
      TotN += popcount(N);
      CovP += popcount(Any[W] & P);
      CovN += popcount(Any[W] & N);
    }
    size_t Covered = CovP + CovN, FP = CovN, FN = TotP - CovP;
    size_t Total = TotP + TotN;
    double DL = subsetDL(Covered, FP) + subsetDL(Total - Covered, FN);
    for (size_t R = 0; R != Rules.size(); ++R)
      if (R != Skip)
        DL += ruleDL(Rules[R]);
    return DL;
  }

  /// Stratified grow/prune split of \p Members: each class, in instance
  /// order, is shuffled and its first GrowFraction goes to \p Grow.  The
  /// reference's index lists are always in instance order too, so the
  /// seeded shuffle draws the same split.
  void splitGrowPrune(const Mask &Members, Rng &R, Mask &Grow,
                      Mask &Prune) const {
    IndexList P, N;
    for (size_t W = 0; W != Words; ++W) {
      int Base = static_cast<int>(W * 64);
      for (uint64_t B = Members[W] & PosBits[W]; B; B &= B - 1)
        P.push_back(Base + static_cast<int>(lowestBit(B)));
      for (uint64_t B = Members[W] & ~PosBits[W]; B; B &= B - 1)
        N.push_back(Base + static_cast<int>(lowestBit(B)));
    }
    shuffle(P, R);
    shuffle(N, R);
    Grow.assign(Words, 0);
    Prune.assign(Words, 0);
    for (const IndexList *L : {&P, &N}) {
      size_t G = static_cast<size_t>(
          std::ceil(Opts.GrowFraction * static_cast<double>(L->size())));
      for (size_t K = 0; K != L->size(); ++K)
        setBit(K < G ? Grow : Prune, static_cast<size_t>((*L)[K]));
    }
  }

  /// Sweeps feature \p F's covered instances in value order and records
  /// the best candidate threshold by FOIL information gain.  The covered
  /// set is first counted into the feature's rank histogram; walking the
  /// occupied ranks in ascending order visits exactly the distinct-value
  /// groups of the sorted covered column, so the prefix counts (P, N with
  /// value <= v), the gain expression and the strict-greater tie policy
  /// -- and hence the winner -- are those of the sort-per-condition
  /// sweep.  The sweep leaves the histogram zeroed for the next call.
  ///
  /// \p Hint carries the largest gain any feature's sweep has *exactly*
  /// achieved so far (monotone; updated as features finish).  Since
  /// log2(P/(P+N)) <= 0 and FP subtraction/multiplication are
  /// rounding-monotone, P * (0 - BaseInfo) is a true upper bound on a
  /// candidate's gain -- so a candidate whose bound cannot strictly beat
  /// this feature's best, nor strictly reach the hint, is skipped without
  /// evaluating the log.  Skipped candidates are strictly below some
  /// exactly-achieved gain, so no reported winner (and no tie-break)
  /// ever changes: results are bit-identical with the hint arriving in
  /// any order, including not at all.
  void scanFeature(unsigned F, size_t P0, size_t N0, double BaseInfo,
                   std::atomic<double> &Hint, FeatureBest &Out) {
    RankHistogram &H = Hists[F];
    const uint32_t *RankF = Rank.data() + static_cast<size_t>(F) * NumInst;
    for (size_t W = 0; W != Words; ++W) {
      uint64_t Cov = CovBits[W];
      for (uint64_t B = Cov & PosBits[W]; B; B &= B - 1) {
        uint32_t R = RankF[W * 64 + lowestBit(B)];
        ++H.Pos[R];
        H.Occupied[R >> 6] |= 1ull << (R & 63);
      }
      for (uint64_t B = Cov & ~PosBits[W]; B; B &= B - 1) {
        uint32_t R = RankF[W * 64 + lowestBit(B)];
        ++H.Neg[R];
        H.Occupied[R >> 6] |= 1ull << (R & 63);
      }
    }

    const std::vector<double> &Values = RankValue[F];
    double BestGain = 1e-9;
    double HintGain = Hint.load(std::memory_order_relaxed);
    double NegBase = 0.0 - BaseInfo; // >= 0: BaseInfo = log2(ratio <= 1)
    FeatureBest Best;
    size_t PrefP = 0, PrefN = 0;
    for (size_t OW = 0; OW != H.Occupied.size(); ++OW) {
      for (uint64_t B = H.Occupied[OW]; B; B &= B - 1) {
        size_t R = OW * 64 + lowestBit(B);
        // One distinct-value group: its positives/negatives.
        size_t GP = H.Pos[R], GN = H.Neg[R];
        H.Pos[R] = H.Neg[R] = 0;
        double V = Values[R];
        PrefP += GP;
        PrefN += GN;
        auto Consider = [&](bool IsLE, size_t P, size_t N) {
          if (P == 0)
            return;
          if (P + N == P0 + N0)
            return; // excludes nothing; useless condition
          double Bound = static_cast<double>(P) * NegBase;
          if (Bound <= BestGain || Bound < HintGain)
            return; // provably cannot beat a winner
          double Gain = static_cast<double>(P) *
                        (std::log2(static_cast<double>(P) /
                                   static_cast<double>(P + N)) -
                         BaseInfo);
          if (Gain > BestGain) {
            BestGain = Gain;
            Best = {Gain, V, IsLE, true};
          }
        };
        // X[F] <= V keeps the prefix (group included).
        Consider(true, PrefP, PrefN);
        // X[F] >= V keeps this value group and the suffix.
        Consider(false, P0 - (PrefP - GP), N0 - (PrefN - GN));
      }
      H.Occupied[OW] = 0;
    }
    Out = Best;
    // Publish this feature's exactly-achieved gain for later sweeps.
    double Cur = Hint.load(std::memory_order_relaxed);
    while (BestGain > Cur &&
           !Hint.compare_exchange_weak(Cur, BestGain,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Finds the single condition with the highest FOIL information gain
  /// over the covered grow instances (\p CovP positives, \p CovN
  /// negatives).  Per-feature sweeps run independently -- on the pool
  /// when attached -- and the argmax is reduced in feature order with the
  /// serial sweep's strict-greater policy (lowest feature index wins
  /// ties).  Returns false when no condition has positive gain (or none
  /// excludes anything).
  bool findBestCondition(size_t CovP, size_t CovN, Condition &Best) {
    size_t P0 = CovP, N0 = CovN;
    if (P0 == 0)
      return false;
    double BaseInfo = std::log2(static_cast<double>(P0) /
                                static_cast<double>(P0 + N0));
    std::atomic<double> Hint{1e-9};
    forEachFeature(P0 + N0, [&](unsigned F) {
      scanFeature(F, P0, N0, BaseInfo, Hint, FeatureResults[F]);
    });
    double BestGain = 1e-9;
    bool Found = false;
    for (unsigned F = 0; F != NumFeatures; ++F) {
      const FeatureBest &FB = FeatureResults[F];
      if (FB.Found && FB.Gain > BestGain) {
        BestGain = FB.Gain;
        Best = {F, FB.IsLessEqual, FB.Value};
        Found = true;
      }
    }
    return Found;
  }

  /// Grows \p R (possibly already containing conditions, for revisions) by
  /// adding best-gain conditions until it covers no negatives of \p Grow.
  void growRule(Rule &R, const Mask &Grow) {
    ruleMask(R, CovBits);
    andInto(CovBits, Grow);
    size_t CovP, CovN;
    countClasses(CovBits, CovP, CovN);
    while (CovN != 0 && R.size() < Opts.MaxConditionsPerRule) {
      Condition C;
      if (!findBestCondition(CovP, CovN, C))
        break;
      R.Conditions.push_back(C);
      andInto(CovBits, condMask(C));
      countClasses(CovBits, CovP, CovN);
    }
  }

  /// Prunes \p R against \p Prune: keeps the prefix of conditions
  /// maximizing (p - n) / (p + n).  May prune to the empty rule, which the
  /// caller must treat as "stop".  Prefix coverage narrows by one
  /// condition mask per length.
  void pruneRule(Rule &R, const Mask &Prune) {
    if (R.Conditions.empty())
      return;
    double BestWorth = -2.0;
    size_t BestLen = R.size();
    PruneCur = Prune;
    // Evaluate every prefix length, shortest to longest; strictly-better
    // keeps the shorter (simpler) rule on ties.
    for (size_t Len = 0; Len <= R.size(); ++Len) {
      if (Len > 0)
        andInto(PruneCur, condMask(R.Conditions[Len - 1]));
      size_t P, N;
      countClasses(PruneCur, P, N);
      double Worth = (P + N) == 0
                         ? 0.0
                         : (static_cast<double>(P) - static_cast<double>(N)) /
                               static_cast<double>(P + N);
      if (Worth > BestWorth + 1e-12) {
        BestWorth = Worth;
        BestLen = Len;
      }
    }
    R.Conditions.resize(BestLen);
  }

  /// IREP* main loop: returns an ordered list of rules for the target
  /// class covering the positives of \p Members against its negatives.
  /// The MDL check after each accepted rule ORs the new rule's coverage
  /// mask into an accumulator instead of re-evaluating every prior rule.
  std::vector<Rule> buildRuleList(const Mask &Members, Rng &R) {
    std::vector<Rule> Rules;
    if (!hasPositive(Members))
      return Rules;
    Mask Remaining = Members, AccumMask(Words, 0), CandMask, Grow, Prune,
         NewMask;
    double BestDL = dlFromMask(AccumMask, Rules, Rules.size(), Members);

    while (hasPositive(Remaining) && Rules.size() < Opts.MaxRules) {
      splitGrowPrune(Remaining, R, Grow, Prune);

      Rule NewRule;
      NewRule.Conclusion = Target;
      growRule(NewRule, Grow);
      pruneRule(NewRule, Prune);
      if (NewRule.Conditions.empty())
        break;
      ruleMask(NewRule, NewMask);

      // Reject rules that are wrong more often than right on prune data.
      size_t P, N;
      CandMask = NewMask;
      andInto(CandMask, Prune);
      countClasses(CandMask, P, N);
      if (P + N > 0 && N > P)
        break;

      // The rule must make progress on the remaining positives.
      CandMask = NewMask;
      andInto(CandMask, Remaining);
      if (!hasPositive(CandMask))
        break;

      Rules.push_back(NewRule);
      CandMask = AccumMask;
      orInto(CandMask, NewMask);
      double DL = dlFromMask(CandMask, Rules, Rules.size(), Members);
      if (DL < BestDL)
        BestDL = DL;
      if (DL > BestDL + Opts.MdlSlackBits) {
        Rules.pop_back();
        break;
      }
      AccumMask.swap(CandMask);
      for (size_t W = 0; W != Words; ++W)
        Remaining[W] &= ~NewMask[W];
    }
    return Rules;
  }

  /// One optimization pass over \p Rules (replacement / revision / keep by
  /// minimum description length), followed by mop-up and rule deletion.
  void optimizePass(std::vector<Rule> &Rules, Rng &R) {
    // PrevMask accumulates the union of rules before RI, in their *final*
    // (possibly replaced) form -- exactly what per-instance re-evaluation
    // saw, since rule RI-1 is settled before iteration RI.  SuffMask[K]
    // is the union of the *original* rules K..end; at iteration RI only
    // indices > RI are consulted, which the pass has not touched yet, so
    // the precomputation stays valid throughout.
    Mask PrevMask(Words, 0), Reach, Grow, Prune, Any;
    std::vector<Mask> SuffMask(Rules.size() + 1);
    SuffMask[Rules.size()].assign(Words, 0);
    for (size_t K = Rules.size(); K-- > 0;) {
      ruleMask(Rules[K], RuleMaskScratch);
      SuffMask[K] = SuffMask[K + 1];
      orInto(SuffMask[K], RuleMaskScratch);
    }
    for (size_t RI = 0; RI != Rules.size(); ++RI) {
      if (RI > 0) {
        ruleMask(Rules[RI - 1], RuleMaskScratch);
        orInto(PrevMask, RuleMaskScratch);
      }
      // Instances that reach rule RI (not claimed by an earlier rule).
      Reach = AllBits;
      for (size_t W = 0; W != Words; ++W)
        Reach[W] &= ~PrevMask[W];
      if (!hasPositive(Reach))
        continue;

      splitGrowPrune(Reach, R, Grow, Prune);

      // Replacement: grown from scratch.
      Rule Replacement;
      Replacement.Conclusion = Target;
      growRule(Replacement, Grow);
      pruneRule(Replacement, Prune);

      // Revision: grown from the current rule.
      Rule Revision = Rules[RI];
      Revision.NumCorrect = Revision.NumIncorrect = 0;
      growRule(Revision, Grow);
      pruneRule(Revision, Prune);

      // Keep whichever of {original, replacement, revision} minimizes the
      // description length of the whole rule set.  Every variant differs
      // from the current list only at RI, so each DL is prefix-union |
      // variant's mask | suffix-union -- no other rule is re-evaluated.
      std::vector<Rule> Variant = Rules;
      auto VariantDL = [&](const Rule &At) {
        Variant[RI] = At;
        Any = PrevMask;
        orInto(Any, SuffMask[RI + 1]);
        ruleMask(At, RuleMaskScratch);
        orInto(Any, RuleMaskScratch);
        return dlFromMask(Any, Variant, Variant.size(), AllBits);
      };
      double DLOrig = VariantDL(Rules[RI]);
      double DLRepl = 1e300, DLRev = 1e300;
      if (!Replacement.Conditions.empty())
        DLRepl = VariantDL(Replacement);
      if (!Revision.Conditions.empty())
        DLRev = VariantDL(Revision);
      if (DLRepl < DLOrig && DLRepl <= DLRev)
        Rules[RI] = Replacement;
      else if (DLRev < DLOrig)
        Rules[RI] = Revision;
    }

    // Mop-up: cover positives the optimized rules no longer cover.
    Mask Uncovered;
    anyRuleMask(Rules, Uncovered);
    for (size_t W = 0; W != Words; ++W)
      Uncovered[W] = AllBits[W] & ~Uncovered[W];
    std::vector<Rule> Extra = buildRuleList(Uncovered, R);
    for (Rule &E : Extra)
      if (Rules.size() < Opts.MaxRules)
        Rules.push_back(std::move(E));

    // Deletion: drop rules whose removal shrinks the description length.
    // Each round computes every rule's coverage mask once; a
    // leave-one-out union is then cheap bit algebra instead of a full
    // re-evaluation per candidate.
    std::vector<Mask> PerRule;
    bool Changed = true;
    while (Changed && !Rules.empty()) {
      Changed = false;
      PerRule.resize(Rules.size());
      Any.assign(Words, 0);
      for (size_t RI = 0; RI != Rules.size(); ++RI) {
        ruleMask(Rules[RI], PerRule[RI]);
        orInto(Any, PerRule[RI]);
      }
      double CurDL = dlFromMask(Any, Rules, Rules.size(), AllBits);
      double BestDL = CurDL;
      size_t BestIdx = Rules.size();
      for (size_t RI = 0; RI != Rules.size(); ++RI) {
        Any.assign(Words, 0);
        for (size_t J = 0; J != Rules.size(); ++J)
          if (J != RI)
            orInto(Any, PerRule[J]);
        double DL = dlFromMask(Any, Rules, RI, AllBits);
        if (DL < BestDL) {
          BestDL = DL;
          BestIdx = RI;
        }
      }
      if (BestIdx != Rules.size()) {
        Rules.erase(Rules.begin() + static_cast<long>(BestIdx));
        Changed = true;
      }
    }
  }
};

} // namespace

Ripper::Ripper(RipperOptions O) : Opts(O) {}

RuleSet Ripper::train(const Dataset &Data, TaskPool &Pool) const {
  size_t NumLS = Data.countLabel(Label::LS);
  size_t NumNS = Data.size() - NumLS;

  // Degenerate cases: empty or single-class data.
  if (Data.empty())
    return RuleSet(Label::NS);
  if (NumLS == 0)
    return RuleSet(Label::NS);
  if (NumNS == 0)
    return RuleSet(Label::LS);

  // RIPPER orders classes by frequency: induce rules for the minority
  // class; the majority is the default.  Ties break toward LS rules with
  // NS default, matching the paper's filters.
  Label Target = NumLS <= NumNS ? Label::LS : Label::NS;
  Label Default = Target == Label::LS ? Label::NS : Label::LS;

  Trainer T(Data, Opts, Target, Pool);
  Rng R(Opts.Seed);
  std::vector<Rule> Rules = T.buildRuleList(T.AllBits, R);
  for (unsigned Pass = 0; Pass != Opts.OptimizePasses; ++Pass)
    T.optimizePass(Rules, R);

  RuleSet RS(Default);
  for (Rule &Rl : Rules) {
    Rl.Conclusion = Target;
    RS.addRule(std::move(Rl));
  }
  size_t DC, DI;
  RS.annotateCoverage(Data, DC, DI);
  return RS;
}
