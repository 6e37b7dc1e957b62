//===- tests/ReferenceFilter.h - The interpreted filter decision -*- C++ -*-===//
//
// The whether-to-schedule decision as the rule interpreter makes it: the
// block-length gate (blocks shorter than the rule set's minimum matchable
// length take the default class for one work unit), then the feature
// pass and RuleSet::predict, charged featureExtractionWork +
// predictionWork.  ScheduleFilter runs the compiled form of the same
// rules; tests/compiled_filter_test.cpp pins it against this reference
// decision for decision and work unit for work unit -- the same way
// tests/ReferenceRipper.h pins the indexed RIPPER trainer.
//
// Do not "optimize" this file: its value is being the plain semantics.
//
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TESTS_REFERENCEFILTER_H
#define SCHEDFILTER_TESTS_REFERENCEFILTER_H

#include "features/Features.h"
#include "ml/Rule.h"

#include <cstdint>

namespace schedfilter {
namespace reference {

/// One interpreted decision: the class as "schedule?" and its work units.
struct FilterDecision {
  bool ScheduleLS = false;
  uint64_t Work = 0;
};

/// What the interpreter decides for \p BB under \p RS.
inline FilterDecision interpretFilter(const RuleSet &RS,
                                      const BasicBlock &BB) {
  if (static_cast<double>(BB.size()) < RS.minMatchableBBLen())
    return {RS.getDefaultClass() == Label::LS, 1};
  FeatureVector X = extractFeatures(BB);
  return {RS.predict(X) == Label::LS,
          featureExtractionWork(BB) + RS.predictionWork(X)};
}

} // namespace reference
} // namespace schedfilter

#endif // SCHEDFILTER_TESTS_REFERENCEFILTER_H
