//===- io/Envelope.h - Sealed, atomically written artifacts -----*- C++ -*-===//
///
/// \file
/// The one envelope the checksummed on-disk entries share -- SFCC1
/// corpus-cache entries (io/CorpusCache.h) and SFFR1 filter-registry
/// entries (io/FilterRegistry.h):
///
///   <magic>\n
///   u64  FNV-1a checksum of everything after this field
///   body (the caller's support/Wire.h encoding)
///
/// Opening never trusts a file: magic and checksum are checked before a
/// single body byte is handed to the caller, which still validates its
/// own fields.  Writing goes to a temp file unique per process and call,
/// flushed, then atomically renamed over the entry, so a concurrent
/// reader sees the old entry or the new one -- never torn bytes -- and a
/// failed write leaves nothing behind.  (SFTB1 traces keep their own
/// header layout: io/TraceStore.h.)
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_IO_ENVELOPE_H
#define SCHEDFILTER_IO_ENVELOPE_H

#include "io/ParseResult.h"

#include <string>

namespace schedfilter {

/// Seals \p Body under \p Magic and writes it to \p Path via a unique
/// temp file and an atomic rename, creating the parent directory first.
/// Returns false, leaving no temp file, on any I/O error.
bool writeEnvelope(const std::string &Path, const char *Magic,
                   const std::string &Body);

/// Reads the whole file at \p Path into \p Bytes; false if it cannot be
/// opened.
bool readFileBytes(const std::string &Path, std::string &Bytes);

/// Checks \p Bytes (a whole file) against \p Magic and the checksum and
/// returns the body.  Errors name the failed check.
ParseResult<std::string> openEnvelope(const char *Magic, std::string Bytes);

} // namespace schedfilter

#endif // SCHEDFILTER_IO_ENVELOPE_H
