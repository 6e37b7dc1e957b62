//===- io/FilterRegistry.cpp - On-disk filter-version lineage ---------------===//

#include "io/FilterRegistry.h"

#include "io/Envelope.h"
#include "ml/Serialization.h"
#include "support/StringUtils.h"
#include "support/Wire.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace schedfilter;

FilterRegistry::FilterRegistry(std::string Directory)
    : Dir(std::move(Directory)) {}

std::string FilterRegistry::entryPath(uint32_t Version) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "v%06u.sffr", Version);
  return Dir + "/" + Name;
}

bool FilterRegistry::probeWritable(std::string &Error) const {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC || !std::filesystem::is_directory(Dir, EC)) {
    Error = "cannot create registry directory '" + Dir + "'" +
            (EC ? ": " + EC.message() : std::string());
    return false;
  }
  std::string Probe = Dir + "/.probe." + std::to_string(::getpid()) + ".tmp";
  bool Created = static_cast<bool>(std::ofstream(Probe, std::ios::binary));
  std::filesystem::remove(Probe, EC);
  if (!Created) {
    Error = "registry directory '" + Dir + "' is not writable";
    return false;
  }
  return true;
}

bool FilterRegistry::store(const FilterVersionMeta &Meta,
                           const RuleSet &Rules) {
  std::string RulesText;
  {
    std::ostringstream OS;
    writeRuleSet(Rules, OS);
    RulesText = OS.str();
  }

  std::string Body;
  wire::putU32(Body, Meta.Version);
  wire::putU32(Body, Meta.ParentVersion);
  wire::putU64(Body, Meta.TriggerTick);
  wire::putU64(Body, Meta.SessionSeed);
  wire::putU64(Body, Meta.CorpusRecords);
  wire::putF64(Body, Meta.ThresholdPct);
  wire::putString(Body, Meta.Model);
  wire::putString(Body, Meta.Workload);
  wire::putString(Body, RulesText);

  bool Stored =
      writeEnvelope(entryPath(Meta.Version), FilterRegistryMagic, Body);
  ++(Stored ? S.Stores : S.StoreFailures);
  return Stored;
}

ParseResult<RegistryEntry> FilterRegistry::load(uint32_t Version) const {
  std::string Path = entryPath(Version);
  auto Fail = [&](const std::string &Why) {
    return ParseResult<RegistryEntry>(ParseError{0, Path + ": " + Why});
  };

  std::string Bytes;
  if (!readFileBytes(Path, Bytes))
    return Fail("cannot open registry entry");

  // Magic and whole-body checksum before believing a single field.
  ParseResult<std::string> Body =
      openEnvelope(FilterRegistryMagic, std::move(Bytes));
  if (!Body)
    return Fail(Body.error().Message);
  const char *P = Body->data();
  const char *End = P + Body->size();

  RegistryEntry E;
  std::string RulesText;
  if (!wire::getU32(P, End, E.Meta.Version) ||
      !wire::getU32(P, End, E.Meta.ParentVersion) ||
      !wire::getU64(P, End, E.Meta.TriggerTick) ||
      !wire::getU64(P, End, E.Meta.SessionSeed) ||
      !wire::getU64(P, End, E.Meta.CorpusRecords) ||
      !wire::getF64(P, End, E.Meta.ThresholdPct) ||
      !wire::getString(P, End, E.Meta.Model) ||
      !wire::getString(P, End, E.Meta.Workload) ||
      !wire::getString(P, End, RulesText))
    return Fail("truncated entry body");
  if (P != End)
    return Fail("trailing bytes after entry body");

  // Embedded version must match the filename's: an entry renamed onto
  // another version number must not be believed.
  if (E.Meta.Version != Version)
    return Fail("embedded version " + std::to_string(E.Meta.Version) +
                " does not match requested version " +
                std::to_string(Version));

  std::istringstream RS(RulesText);
  ParseResult<RuleSet> Rules = readRuleSet(RS);
  if (!Rules)
    return Fail("bad rule set in entry: " + Rules.error().str());
  E.Rules = std::move(*Rules);
  return ParseResult<RegistryEntry>(std::move(E));
}

std::vector<uint32_t> FilterRegistry::listVersions() const {
  std::vector<uint32_t> Versions;
  std::error_code EC;
  std::filesystem::directory_iterator It(Dir, EC);
  if (EC)
    return Versions;
  for (const auto &Entry : It) {
    std::string Name = Entry.path().filename().string();
    // v%06u.sffr and nothing else: 12 chars, digits in [1,7).
    if (Name.size() != 12 || Name[0] != 'v' ||
        Name.compare(7, 5, ".sffr") != 0)
      continue;
    uint64_t V = 0;
    if (parseDigits(Name.substr(1, 6), V) == NumberParse::Ok)
      Versions.push_back(static_cast<uint32_t>(V));
  }
  std::sort(Versions.begin(), Versions.end());
  return Versions;
}
