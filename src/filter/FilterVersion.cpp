//===- filter/FilterVersion.cpp - Versioned immutable filter artifact -------===//

#include "filter/FilterVersion.h"

#include "ml/Serialization.h"
#include "support/Wire.h"

#include <sstream>

using namespace schedfilter;

FilterArtifactRef schedfilter::makeFilterArtifact(RuleSet RS, uint32_t Version,
                                                  uint32_t ParentVersion,
                                                  uint64_t TriggerTick,
                                                  uint64_t CorpusRecords) {
  return std::make_shared<const FilterArtifact>(
      std::move(RS), Version, ParentVersion, TriggerTick, CorpusRecords);
}

uint64_t schedfilter::rulesFingerprint(const RuleSet &RS) {
  std::ostringstream OS;
  writeRuleSet(RS, OS);
  std::string Text = OS.str();
  return wire::fnv1a(Text.data(), Text.size());
}
