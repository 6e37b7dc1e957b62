//===- filter/CompiledFilter.h - Branchless rule-set evaluator ---*- C++ -*-===//
///
/// \file
/// A compiler from any trained RuleSet into a flat, branch-minimal
/// evaluation form.  The interpreter (RuleSet::predict) walks a
/// vector-of-vectors of Conditions -- two pointer indirections and an
/// unpredictable branch per condition, and the serve hot path pays it
/// twice (once for predict, once for predictionWork).  The compiled form
/// is one contiguous array of condition cells:
///
///   cell c = { Feature, Sign, Threshold, OnPass, OnFail }
///
/// laid out in first-match rule order.  Every test is canonicalized to
/// one compare shape -- Sign * X[Feature] <= Threshold, with Sign = +1 for
/// "<=" conditions and Sign = -1 / Threshold negated for ">=" (exact for
/// every double, NaN and infinities included) -- so evaluation is a single
/// data-driven loop with no per-condition branch on the operator:
///
///   c = (Sign * X[Feature] <= Threshold) ? OnPass : OnFail
///
/// OnPass chains to the next cell of the rule, or to a *terminal* (an
/// index past the cell array) carrying the rule's conclusion when the
/// cell is the rule's last; OnFail skips to the first cell of the next
/// rule, or to the default terminal after the last rule.  Indices, not
/// pointers: the whole evaluator state is one cursor.
///
/// Contracts (tests/compiled_filter_test.cpp proves them on the
/// analyzer's nextafter corner grid plus randomized cross-checks):
///   * evaluate(X).ScheduleLS  == (RS.predict(X) == Label::LS) and
///     evaluate(X).Work        == RS.predictionWork(X)
///     for every FeatureVector X, NaN coordinates included -- the
///     compiled form is bit-exactly prediction- AND work-equivalent, so
///     ScheduleFilter's decision counters and every golden pin are
///     byte-identical whichever evaluator runs;
///   * evaluateBatch over a FeatureMatrix returns, row for row, exactly
///     what evaluate returns on that row.
///
/// Batch mode is where compilation pays: distinct (Feature, Sign,
/// Threshold) triples are deduplicated into predicate rows, each row is
/// evaluated for all N blocks with one auto-vectorizable compare sweep
/// over the SoA feature column, and the first-match resolution then walks
/// precomputed bits instead of re-comparing doubles.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_FILTER_COMPILEDFILTER_H
#define SCHEDFILTER_FILTER_COMPILEDFILTER_H

#include "features/FeatureMatrix.h"
#include "ml/Rule.h"

#include <cstdint>
#include <vector>

namespace schedfilter {

/// One compiled condition: Sign * X[Feature] <= Threshold.
struct FilterCell {
  double Threshold = 0.0; ///< original threshold, negated for ">=" tests
  double Sign = 1.0;      ///< +1.0 for "<=", -1.0 for ">="
  uint32_t Feature = 0;
  uint32_t OnPass = 0; ///< next cell, or a terminal when last in its rule
  uint32_t OnFail = 0; ///< first cell of the next rule, or TermDefault
  uint32_t PredRow = 0; ///< deduplicated predicate row (batch mode)
};

/// A RuleSet compiled to the flat cell form.  Immutable after
/// construction; copyable and safely shared across threads (evaluation
/// takes scratch by argument).
class CompiledFilter {
public:
  /// What one evaluation decides: the class (as "schedule?") and the
  /// deterministic work units, bit-equal to RuleSet::predictionWork.
  struct Decision {
    bool ScheduleLS = false;
    uint64_t Work = 0;
  };

  /// Reusable batch scratch: the predicate bit matrix, one 64-bit word
  /// per block, one bit per cell in rule order, so first-match
  /// resolution is straight-line bit arithmetic on a single register
  /// (see evaluateBatch).  Used only when the filter's cells plus one
  /// guard bit per rule fit one word (every trained filter in the repo);
  /// larger filters evaluate row by row and leave it untouched.
  /// Grow-only, one per thread like every other arena buffer.
  using BatchScratch = std::vector<uint64_t>;

  CompiledFilter() = default; ///< empty set: always the default class (NS)
  explicit CompiledFilter(const RuleSet &RS);

  /// Scalar evaluation of one feature vector.
  Decision evaluate(const FeatureVector &X) const {
    const uint32_t End = NumCells;
    const FilterCell *Cs = Cells.data();
    uint32_t C = Entry;
    uint64_t W = 0;
    while (C < End) {
      const FilterCell &L = Cs[C];
      ++W;
      C = L.Sign * X[L.Feature] <= L.Threshold ? L.OnPass : L.OnFail;
    }
    return terminalDecision(C, W);
  }

  /// Batch evaluation: for every row I of \p M, writes evaluate(row I)
  /// into IsLS[I] / Work[I] (arrays of at least M.size()).  The predicate
  /// matrix lives in \p Scratch and is reused across calls; a filter too
  /// large for the one-word fast path is evaluate()d row by row.
  void evaluateBatch(const FeatureMatrix &M, BatchScratch &Scratch,
                     unsigned char *IsLS, uint64_t *Work) const;

  size_t numCells() const { return Cells.size(); }
  size_t numPredRows() const { return PredRows.size(); }

private:
  Decision terminalDecision(uint32_t C, uint64_t W) const {
    uint32_t T = C - NumCells;
    if (T == TermDefault)
      return {Default == Label::LS, W + 1}; // predictionWork's default +1
    return {T == TermMatchLS, W};
  }

  // Terminal offsets past the cell array (cursor = NumCells + offset).
  enum : uint32_t { TermMatchLS = 0, TermMatchNS = 1, TermDefault = 2 };

  std::vector<FilterCell> Cells;
  /// Deduplicated predicate rows for batch mode: cell c's compare is
  /// PredRows[Cells[c].PredRow].
  struct PredRowInfo {
    double Threshold = 0.0;
    double Sign = 1.0;
    uint32_t Feature = 0;
  };
  std::vector<PredRowInfo> PredRows;
  /// Batch fast-path tables, built when every cell bit, one guard bit
  /// per rule, and the default's sentinel bit fit one mask word
  /// (NumCells + #rules + 1 <= 64; true for every trained filter in the
  /// repo).  Bit layout, low to high: rule 0's cells in condition order,
  /// rule 0's guard bit, rule 1's cells, rule 1's guard, ..., the
  /// default bit.  RowCellBits[r]: the (laid-out) cell bits predicate
  /// row r feeds -- one OR per compare sweep fans the row out to all
  /// duplicates.  Resolution is then branchless over the whole rule
  /// list (see evaluateBatch): Fail + CellBitsAll carries into exactly
  /// the guard bits of failing rules, so the first match is one ctz,
  /// and the interpreter's short-circuit work is a popcount of the
  /// visited-cell mask XB ^ (XB - BaseBits).
  std::vector<uint64_t> RowCellBits;
  /// Predicate-row sweep order, grouped by feature (stable within a
  /// feature), so consecutive sweeps reuse the cached column tile.
  std::vector<uint32_t> RowOrder;
  uint64_t CellBitsAll = 0; ///< every cell bit (guard/default bits clear)
  uint64_t GuardBits = 0;   ///< per-rule guard bits plus the default bit
  uint64_t BaseBits = 0;    ///< lowest cell bit of each non-empty rule
  /// Per guard/default bit position: the work the matching rule adds
  /// (its condition count; 1 for the default's +1), its conclusion, and
  /// the mask of all bits strictly below the matching rule's own first
  /// cell -- the failing rules the interpreter walked through.
  unsigned char LenAtPos[64] = {};
  unsigned char LSAtPos[64] = {};
  uint64_t PrefixMaskAtPos[64] = {};
  bool BatchFastPath = false;
  uint32_t NumCells = 0;
  uint32_t Entry = TermDefault; ///< first cell, or a terminal (+NumCells)
  Label Default = Label::NS;
};

} // namespace schedfilter

#endif // SCHEDFILTER_FILTER_COMPILEDFILTER_H
