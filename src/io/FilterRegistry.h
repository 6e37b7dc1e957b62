//===- io/FilterRegistry.h - On-disk filter-version lineage -----*- C++ -*-===//
///
/// \file
/// Persistence for the online-serving loop's filter lineage: one SFFR1
/// file per installed filter version, so a serve run's adaptation history
/// can be inspected, exported (sf-train --from-registry), and byte-diffed
/// across runs -- the registry directory is part of the deterministic
/// contract (identical bytes at any --jobs and cache temperature).
///
/// Format (SFFR1), in the envelope SFCC1 entries share (io/Envelope.h):
///
///   SFFR1\n
///   u64  FNV-1a checksum of everything after this field
///   u32  Version          (embedded and verified against the filename)
///   u32  ParentVersion
///   u64  TriggerTick      (virtual tick of the retrain trigger)
///   u64  SessionSeed      (the serve run's stream seed)
///   u64  CorpusRecords    (corpus size the version trained on)
///   f64  ThresholdPct     (labeling threshold)
///   str  Model
///   str  Workload
///   str  RulesText        (the v1 text format; %.17g thresholds)
///
/// Entries are named v%06u.sffr inside the registry directory.  Loading
/// validates magic, checksum, embedded version, and rule-set syntax; any
/// mismatch is a hard parse error (an entry renamed onto another version
/// number must not be believed).  Stores write a unique temp file and
/// atomically rename.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_IO_FILTERREGISTRY_H
#define SCHEDFILTER_IO_FILTERREGISTRY_H

#include "io/ParseResult.h"
#include "ml/Rule.h"

#include <cstdint>
#include <string>
#include <vector>

namespace schedfilter {

/// Magic line of a registry entry (version suffix bumps on layout change).
inline constexpr char FilterRegistryMagic[] = "SFFR1";

/// Provenance stamped on every persisted filter version.
struct FilterVersionMeta {
  uint32_t Version = 0;
  uint32_t ParentVersion = 0;
  uint64_t TriggerTick = 0;
  uint64_t SessionSeed = 0;
  uint64_t CorpusRecords = 0;
  double ThresholdPct = 0.0;
  std::string Model;
  std::string Workload;
};

/// One loaded entry: metadata plus the version's rule set.
struct RegistryEntry {
  FilterVersionMeta Meta;
  RuleSet Rules{Label::NS};
};

/// A directory of SFFR1 entries.  Not thread-safe: the serving loop
/// stores from its serial install path only, and the inspection tools are
/// single-threaded.
class FilterRegistry {
public:
  explicit FilterRegistry(std::string Directory);

  const std::string &directory() const { return Dir; }

  /// Path of version \p V's entry (v%06u.sffr under the directory).
  std::string entryPath(uint32_t Version) const;

  /// Persists one version.  Creates the directory on first store.
  /// Returns false (and counts a StoreFailure) on any I/O error.
  bool store(const FilterVersionMeta &Meta, const RuleSet &Rules);

  /// Checks, before any serving, that the directory can be created and a
  /// file created in it: creates it, then creates and removes a probe file.
  /// Stores nothing and counts nothing.  On failure returns false with a
  /// diagnostic naming the directory in \p Error.
  bool probeWritable(std::string &Error) const;

  /// Loads version \p Version, validating the full ladder: magic,
  /// checksum, embedded version == requested, rule-set syntax.  Errors
  /// carry the entry path and a specific reason.
  ParseResult<RegistryEntry> load(uint32_t Version) const;

  /// All version numbers present in the directory (files matching the
  /// v%06u.sffr shape), sorted ascending.  A missing directory is an
  /// empty lineage, not an error.
  std::vector<uint32_t> listVersions() const;

  struct Stats {
    uint64_t Stores = 0;
    uint64_t StoreFailures = 0;
  };
  Stats stats() const { return S; }

private:
  std::string Dir;
  Stats S;
};

} // namespace schedfilter

#endif // SCHEDFILTER_IO_FILTERREGISTRY_H
